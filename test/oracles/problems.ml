(* Fixed problem sets for the certifier differential (test_certify) and
   its bench pair. Both are deterministic: the same call returns the same
   problems, bit for bit. *)

module P = Power_core.Paper_data
module Pl = Power_core.Power_law

(* [n] problems per flavor drawn around the Table 1 rows: every
   architectural parameter and chi' scaled by an independent log-uniform
   factor in [1/2, 2], each problem then taken at the paper's frequency
   times each of [fmults]. *)
let seeded ?(fmults = [ 0.1; 1.0; 10.0 ]) ~seed ~n techs =
  let rng = Numerics.Rng.create seed in
  let rows = Array.of_list P.table1 in
  let factor () =
    Float.exp ((Numerics.Rng.float rng 2.0 -. 1.0) *. Float.log 2.0)
  in
  List.concat_map
    (fun tech ->
      List.concat_map
        (fun i ->
          let base =
            Power_core.Calibration.problem_of_row tech ~f:P.frequency
              rows.(i mod Array.length rows)
          in
          let params =
            Power_core.Arch_params.scale ~n_cells:(factor ())
              ~activity:(factor ()) ~avg_cap:(factor ()) ~io_cell:(factor ())
              ~ld_eff:(factor ()) base.Pl.params
          in
          let p =
            { base with Pl.params; chi_prime = base.Pl.chi_prime *. factor () }
          in
          List.map (fun m -> Pl.at_frequency p ~f:(p.Pl.f *. m)) fmults)
        (List.init n Fun.id))
    techs

(* Candidates as the design-space explorer builds them: 8-bit Booth
   radix 2/4/8 and a 2-stage pipelined Wallace tree, characterised once
   on LL, replicated into 1/2/4/8 copies, re-expressed for every flavor
   and taken at 1/4x to 4x the paper's frequency. 240 problems. *)
let explorer =
  lazy
    (let reference = Device.Technology.ll in
     let specs =
       List.map
         (fun radix -> Multipliers.Booth.generate ~radix ~bits:8 ())
         [ 2; 4; 8 ]
       @ [ Multipliers.Spec_optimize.run
             (Multipliers.Wallace.pipelined ~bits:8 ~stages:2) ]
     in
     List.concat_map
       (fun spec ->
         let base =
           Power_core.Arch_params.of_spec ~seed:7 ~cycles:160 reference spec
         in
         List.concat_map
           (fun copies ->
             let params =
               if copies = 1 then base
               else
                 (Power_core.Transform.parallelize ~copies ())
                   .Power_core.Transform.apply base
             in
             List.concat_map
               (fun tech ->
                 let params =
                   Power_core.Tech_compare.adapt_params ~reference tech params
                 in
                 List.map
                   (fun m -> Pl.make tech params ~f:(m *. P.frequency))
                   [ 0.25; 0.5; 1.0; 2.0; 4.0 ])
               Device.Technology.all)
           [ 1; 2; 4; 8 ])
       specs)
