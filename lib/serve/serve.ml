(* The library's main module: the daemon's modules, plus the JSON
   codec under its old path. *)

module Gate = Gate
module Journal = Journal
module Render = Render
module Rpc = Rpc
module Server = Server

(* The codec now lives in its own library; perfbench, which still
   names it [Serve.Json], is the only user of this alias. *)
module Json = Json
