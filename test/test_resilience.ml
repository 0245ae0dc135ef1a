(* Tests for the resilience/QoS layer of the job queue: the circuit
   breaker state machine (closed/open/half-open/flap-out), deadline
   shedding, tenant quotas, overload watermark shedding, the dep-shed
   cascade, structured diagnostics for dropped jobs, p90 exposure, SLO
   accounting — and the conservation property that every submitted job
   ends up exactly one of run / dropped / shed, with clean runs
   byte-identical whether the resilience layer is armed or off. *)

open Ftn_runtime
module Fault = Ftn_fault.Fault
module Diag_engine = Ftn_diag.Diag_engine

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let persistent_plan =
  match Fault.parse_plan "launch:nth=1:persistent" with
  | Ok p -> p
  | Error m -> Fmt.failwith "bad plan: %s" m

let compiled_saxpy =
  lazy
    (let art = Core.Compiler.compile (Ftn_linpack.Fortran_sources.saxpy ~n:8) in
     (art.Core.Compiler.host, Core.Compiler.synthesise art))

let mk_job ?deps ?tenant ?prio ?deadline_s ~name () =
  let host, bs = Lazy.force compiled_saxpy in
  Jobs.job ?tenant ?deps ?prio ?deadline_s ~name
    (fun ?faults ~sched ~device ~start_s () ->
      Executor.run ?faults ~sched ~device ~start_s ~host ~bitstream:bs ())

(* --- breaker state machine --- *)

let cfg ?(trip = 2) ?(cooldown = 1.0) ?(flap = 3) () =
  { Breaker.trip_threshold = trip; cooldown_s = cooldown; flap_limit = flap }

let state = Alcotest.testable (Fmt.of_to_string (fun s -> Breaker.state_name s))
    (fun a b -> Breaker.state_name a = Breaker.state_name b)

let breaker_tests =
  [
    tc "stays closed below the trip threshold" (fun () ->
        let b = Breaker.create ~device:0 (cfg ~trip:3 ()) in
        Breaker.record b ~now_s:1.0 ~ok:false;
        Breaker.record b ~now_s:2.0 ~ok:false;
        check state "still closed" Breaker.Closed (Breaker.state b);
        check (Alcotest.option (Alcotest.float 0.0)) "admits now" (Some 0.0)
          (Breaker.admit_time_s b));
    tc "a success resets the consecutive-failure count" (fun () ->
        let b = Breaker.create ~device:0 (cfg ~trip:2 ()) in
        Breaker.record b ~now_s:1.0 ~ok:false;
        Breaker.record b ~now_s:2.0 ~ok:true;
        Breaker.record b ~now_s:3.0 ~ok:false;
        check state "still closed" Breaker.Closed (Breaker.state b));
    tc "trips open at the threshold, admitting only after the cooldown"
      (fun () ->
        let b = Breaker.create ~device:0 (cfg ~trip:2 ~cooldown:5.0 ()) in
        Breaker.record b ~now_s:1.0 ~ok:false;
        Breaker.record b ~now_s:2.0 ~ok:false;
        check state "open" (Breaker.Open 7.0) (Breaker.state b);
        check (Alcotest.option (Alcotest.float 0.0)) "admits at 7"
          (Some 7.0) (Breaker.admit_time_s b);
        check Alcotest.int "one trip" 1 (Breaker.trips b));
    tc "an admission after the cooldown becomes the half-open probe"
      (fun () ->
        let b = Breaker.create ~device:0 (cfg ~trip:1 ~cooldown:5.0 ()) in
        Breaker.record b ~now_s:1.0 ~ok:false;
        Breaker.note_admitted b ~now_s:2.0;
        check state "still open before cooldown" (Breaker.Open 6.0)
          (Breaker.state b);
        Breaker.note_admitted b ~now_s:6.5;
        check state "half-open" Breaker.Half_open (Breaker.state b));
    tc "a good probe closes the breaker, a bad one re-opens it" (fun () ->
        let ok_probe = Breaker.create ~device:0 (cfg ~trip:1 ()) in
        Breaker.record ok_probe ~now_s:1.0 ~ok:false;
        Breaker.note_admitted ok_probe ~now_s:3.0;
        Breaker.record ok_probe ~now_s:3.5 ~ok:true;
        check state "closed again" Breaker.Closed (Breaker.state ok_probe);
        let bad_probe = Breaker.create ~device:0 (cfg ~trip:1 ()) in
        Breaker.record bad_probe ~now_s:1.0 ~ok:false;
        Breaker.note_admitted bad_probe ~now_s:3.0;
        Breaker.record bad_probe ~now_s:3.5 ~ok:false;
        check state "re-opened" (Breaker.Open 4.5) (Breaker.state bad_probe);
        check Alcotest.int "two trips" 2 (Breaker.trips bad_probe));
    tc "flapping out quarantines the device permanently" (fun () ->
        let b = Breaker.create ~device:0 (cfg ~trip:1 ~flap:2 ()) in
        Breaker.record b ~now_s:1.0 ~ok:false;
        Breaker.note_admitted b ~now_s:3.0;
        Breaker.record b ~now_s:3.5 ~ok:false;
        check state "quarantined" Breaker.Quarantined (Breaker.state b);
        check (Alcotest.option (Alcotest.float 0.0)) "never admits" None
          (Breaker.admit_time_s b);
        (* further outcomes cannot resurrect it *)
        Breaker.record b ~now_s:9.0 ~ok:true;
        check state "still quarantined" Breaker.Quarantined (Breaker.state b));
    tc "transitions are recorded in order with timestamps" (fun () ->
        let seen = ref [] in
        let b =
          Breaker.create ~device:2
            ~on_transition:(fun ~device ~time_s:_ ~from_ ~to_ ~trips:_ ->
              seen := (device, from_, to_) :: !seen)
            (cfg ~trip:1 ~cooldown:2.0 ())
        in
        Breaker.record b ~now_s:1.0 ~ok:false;
        Breaker.note_admitted b ~now_s:4.0;
        Breaker.record b ~now_s:4.5 ~ok:true;
        check
          (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.string Alcotest.string))
          "callback saw every transition"
          [ (2, "closed", "open"); (2, "open", "half-open");
            (2, "half-open", "closed") ]
          (List.rev !seen);
        let snap = Breaker.snapshot b in
        check Alcotest.int "snapshot transitions" 3
          (List.length snap.Breaker.bk_transitions);
        check Alcotest.string "snapshot state" "closed" snap.Breaker.bk_state);
    tc "parse_config accepts on and field overrides, rejects junk"
      (fun () ->
        (match Breaker.parse_config "on" with
        | Ok c ->
          check Alcotest.int "default trip" 3 c.Breaker.trip_threshold
        | Error m -> Alcotest.failf "on rejected: %s" m);
        (match Breaker.parse_config "trip=5,cooldown=0.5,flap=2" with
        | Ok c ->
          check Alcotest.int "trip" 5 c.Breaker.trip_threshold;
          check (Alcotest.float 0.0) "cooldown" 0.5 c.Breaker.cooldown_s;
          check Alcotest.int "flap" 2 c.Breaker.flap_limit
        | Error m -> Alcotest.failf "override rejected: %s" m);
        (match Breaker.parse_config "trip=0" with
        | Ok _ -> Alcotest.fail "trip=0 accepted"
        | Error _ -> ());
        match Breaker.parse_config "bogus=1" with
        | Ok _ -> Alcotest.fail "bogus field accepted"
        | Error m -> check Alcotest.bool "names the field" true
                       (contains m "bogus"));
  ]

(* --- deadline shedding --- *)

let deadline_tests =
  [
    tc "a job past its admission deadline is shed, charged only the wait"
      (fun () ->
        (* queue_depth 1: the second job's admission gates on the first
           one's completion, which dwarfs a 1 ns deadline. *)
        let specs =
          [
            mk_job ~name:"f" ();
            mk_job ~name:"a" ~deadline_s:1e-9 ();
            mk_job ~name:"b" ~deps:[ "a" ] ();
          ]
        in
        let config =
          { Jobs.default_config with Jobs.devices = 1; queue_depth = 1 }
        in
        let stats = Jobs.run ~config specs in
        check Alcotest.int "one ran" 1 stats.Jobs.jobs_run;
        check Alcotest.int "two shed" 2 stats.Jobs.jobs_shed;
        check Alcotest.int "none dropped" 0 stats.Jobs.jobs_dropped;
        (match stats.Jobs.sheds with
        | [ a; b ] ->
          check Alcotest.string "a shed" "a" a.Trace.job;
          check Alcotest.string "for its deadline" "deadline" a.Trace.reason;
          check (Alcotest.float 0.0) "charged the deadline" 1e-9
            a.Trace.wait_s;
          check Alcotest.string "b cascaded" "b" b.Trace.job;
          check Alcotest.string "as dep_shed" "dep_shed" b.Trace.reason
        | l -> Alcotest.failf "expected 2 sheds, got %d" (List.length l));
        (* the shed is visible on the queue trace too *)
        check Alcotest.bool "trace has a shed event" true
          (List.exists
             (function Trace.Shed _ -> true | _ -> false)
             (Trace.events stats.Jobs.trace)));
    tc "the queue-wide default deadline applies to jobs without their own"
      (fun () ->
        let specs = [ mk_job ~name:"f" (); mk_job ~name:"a" () ] in
        let config =
          {
            Jobs.default_config with
            Jobs.devices = 1;
            queue_depth = 1;
            default_deadline_s = Some 1e-9;
          }
        in
        let stats = Jobs.run ~config specs in
        check Alcotest.int "one ran" 1 stats.Jobs.jobs_run;
        check Alcotest.int "one shed" 1 stats.Jobs.jobs_shed);
    tc "a generous per-job deadline overrides a tight default" (fun () ->
        let specs =
          [ mk_job ~name:"f" (); mk_job ~name:"a" ~deadline_s:1e6 () ]
        in
        let config =
          {
            Jobs.default_config with
            Jobs.devices = 1;
            queue_depth = 1;
            default_deadline_s = Some 1e-9;
          }
        in
        let stats = Jobs.run ~config specs in
        check Alcotest.int "both ran" 2 stats.Jobs.jobs_run;
        check Alcotest.int "none shed" 0 stats.Jobs.jobs_shed);
  ]

(* --- tenant quotas --- *)

let quota_tests =
  [
    tc "a quota of 1 serializes a tenant across devices" (fun () ->
        let specs n = List.init n (fun i -> mk_job ~name:(Fmt.str "j%d" i) ()) in
        let free =
          Jobs.run
            ~config:{ Jobs.default_config with Jobs.devices = 2 }
            (specs 4)
        in
        let quota =
          Jobs.run
            ~config:
              {
                Jobs.default_config with
                Jobs.devices = 2;
                tenant_quota = Some 1;
              }
            (specs 4)
        in
        check Alcotest.int "all ran" 4 quota.Jobs.jobs_run;
        check Alcotest.bool "quota stretched the makespan" true
          (quota.Jobs.elapsed_s > free.Jobs.elapsed_s *. 1.5);
        check Alcotest.string "same bytes" free.Jobs.output quota.Jobs.output);
    tc "tenant_share caps in-flight work as a fraction of capacity"
      (fun () ->
        let specs n = List.init n (fun i -> mk_job ~name:(Fmt.str "j%d" i) ()) in
        let free =
          Jobs.run
            ~config:{ Jobs.default_config with Jobs.devices = 2 }
            (specs 4)
        in
        (* 2 devices x depth 8 = 16 slots; a 1/16 share caps at 1. *)
        let share =
          Jobs.run
            ~config:
              {
                Jobs.default_config with
                Jobs.devices = 2;
                tenant_share = Some 0.0625;
              }
            (specs 4)
        in
        check Alcotest.int "all ran" 4 share.Jobs.jobs_run;
        check Alcotest.bool "share stretched the makespan" true
          (share.Jobs.elapsed_s > free.Jobs.elapsed_s *. 1.5));
    tc "per-tenant stats split runs, sheds and quantiles by tenant"
      (fun () ->
        let specs =
          List.init 6 (fun i ->
              mk_job ~tenant:(Fmt.str "t%d" (i mod 2))
                ~name:(Fmt.str "j%d" i) ())
        in
        let stats =
          Jobs.run
            ~config:
              { Jobs.default_config with Jobs.devices = 1; slo_s = Some 1e-12 }
            specs
        in
        check Alcotest.int "two tenants" 2 (List.length stats.Jobs.tenants);
        List.iter
          (fun (t : Jobs.tenant_stats) ->
            check Alcotest.int (t.Jobs.t_name ^ " ran") 3 t.Jobs.t_run;
            check Alcotest.bool "p50 <= p90 <= p99" true
              (t.Jobs.t_p50_s <= t.Jobs.t_p90_s
              && t.Jobs.t_p90_s <= t.Jobs.t_p99_s);
            check Alcotest.int (t.Jobs.t_name ^ " slo violations") 3
              t.Jobs.t_slo_violations)
          stats.Jobs.tenants;
        check Alcotest.int "global slo count" 6 stats.Jobs.slo_violations);
  ]

(* --- overload watermark --- *)

let watermark_tests =
  [
    tc "overload sheds the lowest-priority, newest work first" (fun () ->
        let prios = [| 0; 1; 2; 0; 1; 2 |] in
        let specs =
          List.init 6 (fun i ->
              mk_job ~prio:prios.(i) ~name:(Fmt.str "j%d" i) ())
        in
        let stats =
          Jobs.run
            ~config:
              {
                Jobs.default_config with
                Jobs.devices = 1;
                shed_watermark = Some 3;
              }
            specs
        in
        check Alcotest.int "three shed" 3 stats.Jobs.jobs_shed;
        check Alcotest.int "three ran" 3 stats.Jobs.jobs_run;
        let shed_names =
          List.sort compare
            (List.map (fun s -> s.Trace.job) stats.Jobs.sheds)
        in
        (* prio-0 jobs go first (newest of a tie first), then prio 1 *)
        check (Alcotest.list Alcotest.string) "victims" [ "j0"; "j3"; "j4" ]
          shed_names;
        List.iter
          (fun s ->
            check Alcotest.string "reason" "overload" s.Trace.reason)
          stats.Jobs.sheds);
    tc "a watermark above the backlog sheds nothing" (fun () ->
        let specs = List.init 4 (fun i -> mk_job ~name:(Fmt.str "j%d" i) ()) in
        let plain = Jobs.run specs in
        let marked =
          Jobs.run
            ~config:{ Jobs.default_config with Jobs.shed_watermark = Some 64 }
            specs
        in
        check Alcotest.int "none shed" 0 marked.Jobs.jobs_shed;
        check Alcotest.string "identical bytes" plain.Jobs.output
          marked.Jobs.output);
  ]

(* --- breaker wired through the queue --- *)

let queue_breaker_tests =
  [
    tc "a quarantined-only fleet sheds instead of hanging" (fun () ->
        (* One device, persistent faults, trip/flap of 1: the first job
           degrades to the CPU and quarantines the device, the second is
           shed with no_device. *)
        let specs = [ mk_job ~name:"a" (); mk_job ~name:"b" () ] in
        let stats =
          Jobs.run
            ~config:
              {
                Jobs.default_config with
                Jobs.devices = 1;
                fault_device = Some (0, persistent_plan);
                breaker =
                  Some
                    {
                      Breaker.trip_threshold = 1;
                      cooldown_s = 1e-3;
                      flap_limit = 1;
                    };
              }
            specs
        in
        check Alcotest.int "first ran (degraded)" 1 stats.Jobs.jobs_run;
        check Alcotest.int "second shed" 1 stats.Jobs.jobs_shed;
        (match stats.Jobs.sheds with
        | [ s ] -> check Alcotest.string "no_device" "no_device" s.Trace.reason
        | _ -> Alcotest.fail "expected exactly one shed");
        match stats.Jobs.breakers with
        | [ b ] ->
          check Alcotest.string "quarantined" "quarantined" b.Breaker.bk_state;
          check Alcotest.int "one trip" 1 b.Breaker.bk_trips;
          check Alcotest.bool "breaker transition on the trace" true
            (List.exists
               (function Trace.Breaker _ -> true | _ -> false)
               (Trace.events stats.Jobs.trace))
        | l -> Alcotest.failf "expected 1 breaker, got %d" (List.length l));
    tc "with a healthy peer the breaker steers work off the bad board"
      (fun () ->
        let specs = List.init 8 (fun i -> mk_job ~name:(Fmt.str "j%d" i) ()) in
        let retry = { Fault.default_retry with Fault.drain = false } in
        let host, bs = Lazy.force compiled_saxpy in
        let specs =
          List.map
            (fun (s : Jobs.spec) ->
              {
                s with
                Jobs.js_run =
                  (fun ?faults ~sched ~device ~start_s () ->
                    Executor.run ?faults ~retry ~sched ~device ~start_s ~host
                      ~bitstream:bs ());
              })
            specs
        in
        let stats =
          Jobs.run
            ~config:
              {
                Jobs.default_config with
                Jobs.devices = 2;
                fault_device = Some (1, persistent_plan);
                breaker =
                  Some
                    {
                      Breaker.trip_threshold = 1;
                      cooldown_s = 1e-3;
                      flap_limit = 1;
                    };
              }
            specs
        in
        check Alcotest.int "everything ran" 8 stats.Jobs.jobs_run;
        check Alcotest.int "nothing shed" 0 stats.Jobs.jobs_shed;
        let bad = List.nth stats.Jobs.breakers 1 in
        check Alcotest.string "bad board quarantined" "quarantined"
          bad.Breaker.bk_state;
        (* after the quarantine no further job lands on device 1 *)
        let d1 = Scheduler.device stats.Jobs.scheduler 1 in
        check Alcotest.bool "device 1 took few jobs" true
          (d1.Scheduler.dev_jobs <= 2));
  ]

(* --- dropped-job diagnostics and p90 --- *)

let misc_tests =
  [
    tc "dropped jobs emit structured warnings naming the dependency"
      (fun () ->
        let diag = Diag_engine.create () in
        let specs =
          [
            mk_job ~name:"ok" ();
            mk_job ~name:"cyc_a" ~deps:[ "cyc_b" ] ();
            mk_job ~name:"cyc_b" ~deps:[ "cyc_a" ] ();
            mk_job ~name:"orphan" ~deps:[ "no_such_job" ] ();
          ]
        in
        let stats = Jobs.run ~diag specs in
        check Alcotest.int "one ran" 1 stats.Jobs.jobs_run;
        check Alcotest.int "three dropped" 3 stats.Jobs.jobs_dropped;
        check Alcotest.int "three warnings" 3 (Diag_engine.warning_count diag);
        let messages =
          List.map (fun (d : Ftn_diag.Diag.t) -> d.Ftn_diag.Diag.message)
            (Diag_engine.warnings diag)
        in
        let some_contains subs =
          List.exists
            (fun m -> List.for_all (fun sub -> contains m sub) subs)
            messages
        in
        check Alcotest.bool "cycle named" true
          (some_contains [ "cyc_a"; "cyclic"; "cyc_b" ]);
        check Alcotest.bool "unknown dep named" true
          (some_contains [ "orphan"; "unknown"; "no_such_job" ]));
    tc "p90 sits between p50 and p99" (fun () ->
        let specs = List.init 10 (fun i -> mk_job ~name:(Fmt.str "j%d" i) ()) in
        let stats = Jobs.run specs in
        check Alcotest.bool "p90 positive" true (stats.Jobs.p90_latency_s > 0.0);
        check Alcotest.bool "ordered" true
          (stats.Jobs.p50_latency_s <= stats.Jobs.p90_latency_s
          && stats.Jobs.p90_latency_s <= stats.Jobs.p99_latency_s));
    tc "bad resilience configs are rejected" (fun () ->
        let bad config =
          match Jobs.run ~config [ mk_job ~name:"a" () ] with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        check Alcotest.bool "quota 0" true
          (bad { Jobs.default_config with Jobs.tenant_quota = Some 0 });
        check Alcotest.bool "share > 1" true
          (bad { Jobs.default_config with Jobs.tenant_share = Some 1.5 });
        check Alcotest.bool "watermark 0" true
          (bad { Jobs.default_config with Jobs.shed_watermark = Some 0 }));
  ]

(* --- conservation and transparency properties --- *)

let props =
  let build_specs (n, seed) =
    let rng = Random.State.make [| seed |] in
    List.init n (fun i ->
        let deps =
          List.filteri
            (fun j _ -> j < i && Random.State.int rng 4 = 0)
            (List.init n (fun j -> j))
          |> List.map (Fmt.str "j%d")
        in
        (* an unknown dep in ~1 of 8 jobs exercises the dropped path *)
        let deps =
          if Random.State.int rng 8 = 0 then "missing" :: deps else deps
        in
        let deadline_s =
          match Random.State.int rng 3 with
          | 0 -> Some 1e-9
          | 1 -> Some 1.0
          | _ -> None
        in
        mk_job ~deps ?deadline_s
          ~tenant:(Fmt.str "t%d" (i mod 3))
          ~prio:(Random.State.int rng 3)
          ~name:(Fmt.str "j%d" i) ())
  in
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:12
        ~name:
          "conservation: every job is exactly one of run / dropped / shed \
           under random DAGs, deadlines, faults and devices"
        (QCheck.make
           QCheck.Gen.(pair (int_range 1 8) (int_bound 10_000))
           ~print:(fun (n, seed) -> Fmt.str "n=%d seed=%d" n seed))
        (fun ((n, seed) as case) ->
          let devices = 1 + (seed mod 3) in
          let config =
            {
              Jobs.default_config with
              Jobs.devices;
              queue_depth = 1 + (seed mod 4);
              fault_device =
                (if seed mod 2 = 0 then Some (0, persistent_plan) else None);
              tenant_quota = (if seed mod 5 = 0 then Some 1 else None);
              shed_watermark = (if seed mod 7 = 0 then Some 2 else None);
              breaker =
                (if seed mod 3 = 0 then Some Breaker.default_config else None);
            }
          in
          let diag = Diag_engine.create () in
          let stats = Jobs.run ~config ~diag (build_specs case) in
          if
            stats.Jobs.jobs_run + stats.Jobs.jobs_dropped + stats.Jobs.jobs_shed
            <> n
          then
            QCheck.Test.fail_reportf "%d run + %d dropped + %d shed <> %d"
              stats.Jobs.jobs_run stats.Jobs.jobs_dropped stats.Jobs.jobs_shed
              n;
          if stats.Jobs.jobs_dropped <> Diag_engine.warning_count diag then
            QCheck.Test.fail_reportf "%d dropped but %d warnings"
              stats.Jobs.jobs_dropped
              (Diag_engine.warning_count diag);
          true);
      QCheck.Test.make ~count:12
        ~name:
          "transparency: clean runs are byte-identical with the resilience \
           layer armed vs off"
        (QCheck.make
           QCheck.Gen.(pair (int_range 1 8) (int_bound 10_000))
           ~print:(fun (n, seed) -> Fmt.str "n=%d seed=%d" n seed))
        (fun (n, seed) ->
          (* clean specs: no per-job deadlines, no unknown deps *)
          let specs () =
            let rng = Random.State.make [| seed |] in
            List.init n (fun i ->
                let deps =
                  List.filteri
                    (fun j _ -> j < i && Random.State.int rng 4 = 0)
                    (List.init n (fun j -> j))
                  |> List.map (Fmt.str "j%d")
                in
                mk_job ~deps
                  ~tenant:(Fmt.str "t%d" (i mod 3))
                  ~name:(Fmt.str "j%d" i) ())
          in
          let devices = 1 + (seed mod 3) in
          let off =
            Jobs.run
              ~config:{ Jobs.default_config with Jobs.devices }
              (specs ())
          in
          let on =
            Jobs.run
              ~config:
                {
                  Jobs.default_config with
                  Jobs.devices;
                  default_deadline_s = Some 1e6;
                  tenant_quota = Some 1024;
                  tenant_share = Some 1.0;
                  slo_s = Some 1e6;
                  breaker = Some Breaker.default_config;
                  shed_watermark = Some 100_000;
                }
              (specs ())
          in
          if not (String.equal off.Jobs.output on.Jobs.output) then
            QCheck.Test.fail_reportf "outputs differ with resilience armed";
          if off.Jobs.jobs_run <> on.Jobs.jobs_run then
            QCheck.Test.fail_reportf "jobs_run differs (%d vs %d)"
              off.Jobs.jobs_run on.Jobs.jobs_run;
          if not (Float.equal off.Jobs.elapsed_s on.Jobs.elapsed_s) then
            QCheck.Test.fail_reportf "makespan differs: %.17g vs %.17g"
              off.Jobs.elapsed_s on.Jobs.elapsed_s;
          if on.Jobs.jobs_shed <> 0 then
            QCheck.Test.fail_reportf "clean run shed %d jobs"
              on.Jobs.jobs_shed;
          true);
    ]

(* --- seeded campaigns over a 1000-job mix --- *)

let mix_variants =
  lazy
    (Array.map
       (fun src ->
         let art = Core.Compiler.compile src in
         (art.Core.Compiler.host, Core.Compiler.synthesise art))
       Ftn_linpack.Fortran_sources.
         [| saxpy ~n:64; saxpy ~n:100; sgesl ~n:12; sgesl ~n:20 |])

(* A job running one compiled variant under [own] faults, unless the
   queue's fault device overrides them. *)
let mix_job ?retry ?prio ?own ~tenant ~deps ~name (host, bs) =
  Jobs.job ~tenant ~deps ?prio ~name (fun ?faults ~sched ~device ~start_s () ->
      let faults = match faults with Some _ -> faults | None -> own in
      Executor.run ?faults ?retry ~sched ~device ~start_s ~host
        ~bitstream:bs ())

(* Job i runs variant i mod 4 under tenant t(i mod 4), at priority
   i mod 3 when [prio], with fault plan [transient i]; every 7th job
   depends on the job 7 before it, so the DAG has cross-tenant edges
   without ever deadlocking. *)
let job_mix ?retry ?(prio = false) ?(transient = fun _ -> None) ~prefix n =
  let variants = Lazy.force mix_variants in
  let name i = Fmt.str "%s%04d" prefix i in
  List.init n (fun i ->
      mix_job ?retry ?own:(transient i)
        ?prio:(if prio then Some (i mod 3) else None)
        ~tenant:(Fmt.str "t%d" (i mod 4))
        ~deps:(if i mod 7 = 0 && i >= 7 then [ name (i - 7) ] else [])
        ~name:(name i)
        variants.(i mod Array.length variants))

(* Simulated times summed in a different order agree to 1e-9 relative. *)
let sim_time =
  Alcotest.testable Fmt.float (fun a b ->
      Float.abs (a -. b)
      <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)))

let run_mix ?fault_device ~devices n =
  let config =
    {
      Jobs.default_config with
      Jobs.devices;
      queue_depth = 8;
      fault_device = Option.map (fun d -> (d, persistent_plan)) fault_device;
    }
  in
  Jobs.run ~config (job_mix ~prefix:"j" n)

let fault_jobs = 120
let fault_baseline = lazy (run_mix ~devices:1 fault_jobs)

(* 1000 jobs plus three poison jobs under seed 42: ~12% of the jobs carry
   a random transient fault, device 1 injects a persistent launch fault
   into everything placed on it, and drain is off, so its circuit
   breaker must take the board out. *)
let chaos_seed = 42
let chaos_jobs = 1000
let chaos_retry = { Fault.default_retry with Fault.drain = false }

let chaos_mix ~chaos () =
  let rng = Random.State.make [| chaos_seed |] in
  let kinds =
    Fault.
      [| Transfer_error; Alloc_failure; Launch_failure; Kernel_timeout |]
  in
  let transient i =
    if chaos && Random.State.int rng 100 < 12 then
      Some
        (Fault.plan ~seed:(chaos_seed + i)
           [
             Fault.rule
               kinds.(Random.State.int rng (Array.length kinds))
               (Fault.Nth 1);
           ])
    else None
  in
  let base =
    job_mix ~retry:chaos_retry ~prio:true ~transient ~prefix:"c" chaos_jobs
  in
  if not chaos then base
  else
    let poison ~tenant ~deps name =
      mix_job ~retry:chaos_retry ~tenant ~deps ~name
        (Lazy.force mix_variants).(0)
    in
    base
    @ [
        poison ~tenant:"t2" ~deps:[ "cyc_b" ] "cyc_a";
        poison ~tenant:"t2" ~deps:[ "cyc_a" ] "cyc_b";
        poison ~tenant:"t3" ~deps:[ "no_such_job" ] "orphan";
      ]

let campaign_tests =
  [
    tc "1000 jobs on 4 devices match 1 device at least 2x faster"
      (fun () ->
        let s1 = run_mix ~devices:1 1000 and s4 = run_mix ~devices:4 1000 in
        List.iter
          (fun (label, (s : Jobs.stats)) ->
            check Alcotest.int (label ^ " dropped") 0 s.Jobs.jobs_dropped;
            check Alcotest.int (label ^ " run") 1000 s.Jobs.jobs_run)
          [ ("1 device", s1); ("4 devices", s4) ];
        check Alcotest.string "output" s1.Jobs.output s4.Jobs.output;
        check sim_time "kernel time" s1.Jobs.total_kernel_s
          s4.Jobs.total_kernel_s;
        check sim_time "transfer time" s1.Jobs.total_transfer_s
          s4.Jobs.total_transfer_s;
        let speedup =
          if s4.Jobs.elapsed_s > 0.0 then s1.Jobs.elapsed_s /. s4.Jobs.elapsed_s
          else 0.0
        in
        if speedup < 2.0 then
          Alcotest.failf "4 devices only %.2fx faster than 1 (< 2x)" speedup);
    tc "a persistently faulted device drains to its peers" (fun () ->
        let s = run_mix ~devices:4 ~fault_device:1 fault_jobs in
        check Alcotest.int "run" fault_jobs s.Jobs.jobs_run;
        check Alcotest.int "dropped" 0 s.Jobs.jobs_dropped;
        check Alcotest.bool "drained" true (s.Jobs.drained_jobs >= 1);
        check Alcotest.bool "a device failed" true
          (List.exists
             (fun ds -> ds.Scheduler.ds_failed)
             (Scheduler.snapshot s.Jobs.scheduler));
        check Alcotest.string "output" (Lazy.force fault_baseline).Jobs.output
          s.Jobs.output);
    tc "a lone faulted device falls back to the CPU" (fun () ->
        let s = run_mix ~devices:1 ~fault_device:0 fault_jobs in
        check Alcotest.int "run" fault_jobs s.Jobs.jobs_run;
        check Alcotest.int "dropped" 0 s.Jobs.jobs_dropped;
        check Alcotest.bool "degraded" true (s.Jobs.degraded_jobs >= 1);
        check Alcotest.string "output" (Lazy.force fault_baseline).Jobs.output
          s.Jobs.output);
    tc "a seeded chaos campaign is conserved, deterministic and bounded"
      (fun () ->
        let n_chaos = chaos_jobs + 3 in
        let deadline_s = 0.05 in
        let clean =
          { Jobs.default_config with Jobs.devices = 4; queue_depth = 8 }
        in
        (* every resilience feature armed, none able to trigger *)
        let armed =
          {
            clean with
            Jobs.default_deadline_s = Some 1e6;
            tenant_quota = Some chaos_jobs;
            slo_s = Some 1e6;
            breaker = Some Breaker.default_config;
            shed_watermark = Some (10 * chaos_jobs);
          }
        in
        let chaos_config =
          {
            clean with
            Jobs.fault_device = Some (1, persistent_plan);
            default_deadline_s = Some deadline_s;
            tenant_quota = Some 16;
            slo_s = Some 0.005;
            breaker = Some Breaker.default_config;
            shed_watermark = Some (2 * n_chaos);
          }
        in
        let baseline = Jobs.run ~config:clean (chaos_mix ~chaos:false ()) in
        let transparent = Jobs.run ~config:armed (chaos_mix ~chaos:false ()) in
        let diag1 = Diag_engine.create () in
        let chaos1 =
          Jobs.run ~config:chaos_config ~diag:diag1 (chaos_mix ~chaos:true ())
        in
        let chaos2 =
          Jobs.run ~config:chaos_config ~diag:(Diag_engine.create ())
            (chaos_mix ~chaos:true ())
        in
        List.iter
          (fun (label, n, (s : Jobs.stats)) ->
            check Alcotest.int (label ^ " conserved") n
              (s.Jobs.jobs_run + s.Jobs.jobs_dropped + s.Jobs.jobs_shed))
          [
            ("baseline", chaos_jobs, baseline);
            ("transparent", chaos_jobs, transparent);
            ("chaos 1", n_chaos, chaos1);
            ("chaos 2", n_chaos, chaos2);
          ];
        check Alcotest.string "armed output" baseline.Jobs.output
          transparent.Jobs.output;
        check Alcotest.int "armed jobs_run" baseline.Jobs.jobs_run
          transparent.Jobs.jobs_run;
        check sim_time "armed makespan" baseline.Jobs.elapsed_s
          transparent.Jobs.elapsed_s;
        check Alcotest.int "armed sheds" 0 transparent.Jobs.jobs_shed;
        check Alcotest.bool "armed trips" false
          (List.exists (fun b -> b.Breaker.bk_trips > 0)
             transparent.Jobs.breakers);
        check Alcotest.int "armed slo violations" 0
          transparent.Jobs.slo_violations;
        let counts (s : Jobs.stats) =
          (s.Jobs.jobs_run, s.Jobs.jobs_dropped, s.Jobs.jobs_shed)
        in
        let trips (s : Jobs.stats) =
          List.map (fun b -> (b.Breaker.bk_device, b.Breaker.bk_trips))
            s.Jobs.breakers
        in
        let int3 = Alcotest.(triple int int int) in
        check Alcotest.string "chaos output" chaos1.Jobs.output
          chaos2.Jobs.output;
        check int3 "chaos counts" (counts chaos1) (counts chaos2);
        check sim_time "chaos makespan" chaos1.Jobs.elapsed_s
          chaos2.Jobs.elapsed_s;
        check Alcotest.(list (pair int int)) "chaos trips" (trips chaos1)
          (trips chaos2);
        check Alcotest.bool "a breaker tripped" true
          (List.fold_left (fun acc (_, t) -> acc + t) 0 (trips chaos1) >= 1);
        List.iter
          (fun (d, t) ->
            if t > Breaker.default_config.Breaker.flap_limit then
              Alcotest.failf "device %d tripped %d times (> flap limit %d)" d t
                Breaker.default_config.Breaker.flap_limit)
          (trips chaos1);
        check Alcotest.int "poison jobs dropped" 3 chaos1.Jobs.jobs_dropped;
        check Alcotest.bool "a warning per poison job" true
          (Diag_engine.warning_count diag1 >= 3);
        (* the admission wait beyond the deadline is shed, not served *)
        let p99_bound = deadline_s +. (10.0 *. baseline.Jobs.p99_latency_s) in
        if chaos1.Jobs.p99_latency_s > p99_bound then
          Alcotest.failf "chaos p99 %.6f s exceeds the bound %.6f s"
            chaos1.Jobs.p99_latency_s p99_bound);
  ]

let () =
  Alcotest.run "resilience"
    [
      ("breaker", breaker_tests);
      ("deadline", deadline_tests);
      ("quota", quota_tests);
      ("watermark", watermark_tests);
      ("queue-breaker", queue_breaker_tests);
      ("misc", misc_tests);
      ("props", props);
      ("campaigns", campaign_tests);
    ]
