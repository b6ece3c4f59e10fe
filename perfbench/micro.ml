(* Host cost of single crypto and telemetry operations, each beside the
   Cost_model charge for the same operation. *)

open Util
module Cmac = Asc_crypto.Cmac
module Cost = Svm.Cost_model

(* ns per call: median over 31 batches of [batch] calls *)
let per_call ~batch f =
  let runs =
    Array.init 31 (fun _ ->
        let t0 = now_ns () in
        for _ = 1 to batch do
          f ()
        done;
        now_ns () - t0)
  in
  Array.sort compare runs;
  float runs.(15) /. float batch

let resume_suffix = 48

type op = {
  name : string;     (* the per-layer metric *)
  host_ns : float;
  modeled : int;     (* Cost_model cycles for the same operation *)
}

let run () =
  let key = Workload.key in
  let block = Bytes.make 16 'b' and dst = Bytes.create 16 in
  let mac len =
    let msg = String.make len 'm' in
    per_call ~batch:200 (fun () -> ignore (Sys.opaque_identity (Cmac.mac key msg)))
  in
  let saved =
    let st = Cmac.Streaming.init key in
    Cmac.Streaming.update_string st (String.make 16 'p');
    Cmac.Streaming.save st
  in
  let suffix = Bytes.make resume_suffix 's' in
  let resume () =
    let st = Cmac.Streaming.resume key saved in
    Cmac.Streaming.update st suffix ~pos:0 ~len:resume_suffix;
    ignore (Sys.opaque_identity (Cmac.Streaming.final st))
  in
  let plane = Asc_obs.Telemetry.create () in
  let shard = Asc_obs.Telemetry.shard plane ~pid:1 in
  let now = ref 0 in
  let record () =
    incr now;
    Asc_obs.Telemetry.record plane shard ~site:0x1000 ~sem:"getpid"
      ~reason:Asc_obs.Telemetry.Precomp_hit ~cf:Asc_obs.Telemetry.Cf_hit ~cycles:866 ~alloc:0
      ~now:!now
  in
  [ { name = "cmac.block_ns";
      host_ns = per_call ~batch:200 (fun () -> Cmac.mac_block_into key block ~dst);
      modeled = Cost.lbmac_chain_cost };
    { name = "cmac.mac_ns.1blk"; host_ns = mac 16; modeled = Cost.mac_cost 16 };
    { name = "cmac.mac_ns.4blk"; host_ns = mac 64; modeled = Cost.mac_cost 64 };
    { name = "cmac.mac_ns.16blk"; host_ns = mac 256; modeled = Cost.mac_cost 256 };
    { name = "cmac.resume_ns";
      host_ns = per_call ~batch:200 resume;
      modeled = Cost.mac_resume_cost resume_suffix };
    { name = "telemetry.record_ns";
      host_ns = per_call ~batch:1000 record;
      modeled = Cost.telemetry_record_cost } ]
