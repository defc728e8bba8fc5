(* The serve library's interface. [Json] is the shared codec of the
   [json] library, re-exported so [Serve.Json] keeps naming it. *)
module Client = Client
module Engine = Engine
module Json = Json
module Protocol = Protocol
module Server = Server
module Session = Session
