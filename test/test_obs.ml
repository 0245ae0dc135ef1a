(* Tests for the observability subsystem: span nesting over both clocks,
   the metrics registry, logger capture, and the Chrome trace-event
   exporter (structure and ordering, never absolute timestamps). *)

open Ftn_obs

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let span_tests =
  [
    tc "wall spans nest parent/child" (fun () ->
        let c = Span.create () in
        Span.with_collector c (fun () ->
            Span.with_span ~name:"outer" (fun () ->
                Span.with_span ~name:"inner" (fun () -> ());
                Span.with_span ~name:"inner2" (fun () -> ())));
        match Span.spans c with
        | [ outer; inner; inner2 ] ->
          check Alcotest.string "outer name" "outer" outer.Span.name;
          check Alcotest.(option int) "outer is root" None outer.Span.parent;
          check Alcotest.(option int) "inner child of outer"
            (Some outer.Span.id) inner.Span.parent;
          check Alcotest.(option int) "inner2 child of outer"
            (Some outer.Span.id) inner2.Span.parent;
          check Alcotest.bool "outer covers inner" true
            (outer.Span.dur_s >= inner.Span.dur_s)
        | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans));
    tc "spans close on exception" (fun () ->
        let c = Span.create () in
        (try
           Span.with_collector c (fun () ->
               Span.with_span ~name:"boom" (fun () -> failwith "x"))
         with Failure _ -> ());
        (match Span.spans c with
        | [ sp ] -> check Alcotest.bool "closed" true (sp.Span.dur_s >= 0.0)
        | _ -> Alcotest.fail "expected 1 span");
        (* The stack unwound: a later span is again a root. *)
        Span.with_collector c (fun () ->
            Span.with_span ~name:"after" (fun () -> ()));
        match Span.spans c with
        | [ _; after ] ->
          check Alcotest.(option int) "root again" None after.Span.parent
        | _ -> Alcotest.fail "expected 2 spans");
    tc "sim spans carry explicit timeline positions" (fun () ->
        let c = Span.create () in
        let _ =
          Span.record_sim ~collector:c ~name:"k1" ~start_s:0.0 ~dur_s:2e-6 ()
        in
        let _ =
          Span.record_sim ~collector:c
            ~attrs:[ ("track", "transfer") ]
            ~name:"t1" ~start_s:2e-6 ~dur_s:1e-6 ()
        in
        match Span.spans c with
        | [ k1; t1 ] ->
          check Alcotest.bool "sim clock" true (k1.Span.clock = Span.Sim);
          check (Alcotest.float 1e-12) "k1 start" 0.0 k1.Span.start_s;
          check (Alcotest.float 1e-12) "t1 start" 2e-6 t1.Span.start_s;
          check Alcotest.(option string) "attr" (Some "transfer")
            (Span.attr t1 "track")
        | _ -> Alcotest.fail "expected 2 spans");
    tc "set_attr replaces existing keys" (fun () ->
        let c = Span.create () in
        Span.with_collector c (fun () ->
            Span.with_span_sp ~name:"s" (fun sp ->
                Span.set_attr sp ~key:"k" "1";
                Span.set_attr sp ~key:"k" "2"));
        match Span.spans c with
        | [ sp ] ->
          check Alcotest.(option string) "last write wins" (Some "2")
            (Span.attr sp "k");
          check Alcotest.int "no duplicate" 1 (List.length sp.Span.attrs)
        | _ -> Alcotest.fail "expected 1 span");
  ]

let metrics_tests =
  [
    tc "counters accumulate" (fun () ->
        let r = Metrics.create () in
        Metrics.incr ~registry:r "a.count";
        Metrics.incr ~registry:r ~by:41 "a.count";
        check Alcotest.int "sum" 42 (Metrics.counter_value ~registry:r "a.count"));
    tc "gauges keep the last value" (fun () ->
        let r = Metrics.create () in
        Metrics.set_gauge ~registry:r "g" 1.5;
        Metrics.set_gauge ~registry:r "g" 2.5;
        match Metrics.find ~registry:r "g" with
        | Some (Metrics.Gauge_v v) -> check (Alcotest.float 0.0) "last" 2.5 v
        | _ -> Alcotest.fail "expected gauge");
    tc "histograms summarise" (fun () ->
        let r = Metrics.create () in
        List.iter (Metrics.observe ~registry:r "h") [ 3.0; 1.0; 2.0 ];
        match Metrics.find ~registry:r "h" with
        | Some (Metrics.Histogram_v { count; sum; min_v; max_v; _ }) ->
          check Alcotest.int "count" 3 count;
          check (Alcotest.float 1e-9) "sum" 6.0 sum;
          check (Alcotest.float 0.0) "min" 1.0 min_v;
          check (Alcotest.float 0.0) "max" 3.0 max_v
        | _ -> Alcotest.fail "expected histogram");
    tc "kind reuse is rejected" (fun () ->
        let r = Metrics.create () in
        Metrics.incr ~registry:r "m";
        Alcotest.check_raises "mismatch"
          (Metrics.Kind_mismatch
             "metric \"m\" already registered with another kind") (fun () ->
            Metrics.set_gauge ~registry:r "m" 1.0));
    tc "snapshot is sorted and json serialises" (fun () ->
        let r = Metrics.create () in
        Metrics.incr ~registry:r "z.last";
        Metrics.incr ~registry:r "a.first";
        Metrics.set_gauge ~registry:r "m.mid" 0.5;
        let names = List.map fst (Metrics.snapshot ~registry:r ()) in
        check
          Alcotest.(list string)
          "sorted"
          [ "a.first"; "m.mid"; "z.last" ]
          names;
        let j = Json.to_string (Metrics.to_json ~registry:r ()) in
        check Alcotest.bool "counter json" true
          (Astring_like.contains j "\"a.first\":{\"type\":\"counter\",\"value\":1}"));
  ]

let log_tests =
  [
    tc "capture records level and message" (fun () ->
        let (), msgs =
          Log.with_capture (fun () ->
              Log.infof "hello %d" 42;
              Log.errorf "bad")
        in
        check Alcotest.int "two messages" 2 (List.length msgs);
        (match msgs with
        | [ (l1, m1); (l2, m2) ] ->
          check Alcotest.bool "info" true (l1 = Log.Info);
          check Alcotest.string "formatted" "hello 42" m1;
          check Alcotest.bool "error" true (l2 = Log.Error);
          check Alcotest.string "msg" "bad" m2
        | _ -> Alcotest.fail "unexpected capture"));
    tc "messages below the level are dropped" (fun () ->
        let (), msgs =
          Log.with_capture ~level:Log.Warn (fun () ->
              Log.debugf "quiet";
              Log.infof "quiet too";
              Log.warnf "loud")
        in
        check Alcotest.int "one message" 1 (List.length msgs));
    tc "capture restores the previous sink and level" (fun () ->
        let before = Log.level () in
        let (), _ = Log.with_capture ~level:Log.Debug (fun () -> ()) in
        check Alcotest.bool "level restored" true (Log.level () = before));
    tc "level round-trips through strings" (fun () ->
        List.iter
          (fun l ->
            check Alcotest.bool "round trip" true
              (Log.level_of_string (Log.string_of_level l) = Some l))
          [ Log.Debug; Log.Info; Log.Warn; Log.Error ]);
    tc "disabled levels do not format their message" (fun () ->
        let calls = ref 0 in
        let pp fmt () =
          incr calls;
          Format.pp_print_string fmt "x"
        in
        Log.debugf "value %a" pp ();
        check Alcotest.int "not formatted at the default level" 0 !calls;
        let (), msgs =
          Log.with_capture ~level:Log.Debug (fun () -> Log.debugf "value %a" pp ())
        in
        check Alcotest.int "formatted once when enabled" 1 !calls;
        check (Alcotest.list Alcotest.string) "message" [ "value x" ]
          (List.map snd msgs));
  ]

(* A deterministic collector: one wall span (compile work) and a sim
   timeline with a transfer, a kernel and its overhead. *)
let golden_collector () =
  let c = Span.create () in
  Span.with_collector c (fun () ->
      Span.with_span ~name:"compile" (fun () ->
          Span.with_span ~name:"pass.canonicalize" (fun () -> ())));
  let _ =
    Span.record_sim ~collector:c
      ~attrs:[ ("track", "transfer"); ("direction", "h2d"); ("bytes", "64") ]
      ~name:"h2d:x" ~start_s:0.0 ~dur_s:1e-6 ()
  in
  let _ =
    Span.record_sim ~collector:c
      ~attrs:[ ("track", "kernel"); ("kernel", "k") ]
      ~name:"k" ~start_s:1e-6 ~dur_s:5e-6 ()
  in
  let _ =
    Span.record_sim ~collector:c
      ~attrs:[ ("track", "transfer"); ("direction", "d2h"); ("bytes", "32") ]
      ~name:"d2h:y" ~start_s:6e-6 ~dur_s:1e-6 ()
  in
  c

let chrome_tests =
  [
    tc "stable event names in order" (fun () ->
        let j = Chrome_trace.to_string (golden_collector ()) in
        (* Golden-ish: assert the event-name sequence, not timestamps. *)
        let names = [ "compile"; "pass.canonicalize"; "h2d:x"; "k"; "d2h:y" ] in
        let positions =
          List.map
            (fun n ->
              let needle = "\"name\":\"" ^ n ^ "\"" in
              check Alcotest.bool ("has " ^ n) true (Astring_like.contains j needle);
              let rec find i =
                if String.length needle + i > String.length j then -1
                else if String.sub j i (String.length needle) = needle then i
                else find (i + 1)
              in
              find 0)
            names
        in
        check Alcotest.bool "ordered" true
          (List.sort compare positions = positions));
    tc "sim timestamps are relative microseconds" (fun () ->
        let j = Chrome_trace.to_string (golden_collector ()) in
        check Alcotest.bool "kernel at 1us" true
          (Astring_like.contains j
             "\"name\":\"k\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":1.0,\"dur\":5.0"));
    tc "wall timestamps are normalised, never absolute" (fun () ->
        let j = Chrome_trace.to_string (golden_collector ()) in
        (* First wall span starts at ts 0 regardless of wall-clock epoch. *)
        check Alcotest.bool "compile at 0" true
          (Astring_like.contains j
             "\"name\":\"compile\",\"cat\":\"wall\",\"ph\":\"X\",\"ts\":0.0"));
    tc "tracks and bytes counter" (fun () ->
        let j = Chrome_trace.to_string (golden_collector ()) in
        List.iter
          (fun needle -> check Alcotest.bool needle true (Astring_like.contains j needle))
          [
            "\"name\":\"device.kernels\"";
            "\"name\":\"device.transfers\"";
            "\"name\":\"device.bytes_transferred\",\"ph\":\"C\"";
            "{\"total\":64,\"h2d\":64,\"d2h\":0}";
            "{\"total\":96,\"h2d\":64,\"d2h\":32}";
          ]);
    tc "metrics embed under a metrics key" (fun () ->
        let r = Metrics.create () in
        Metrics.incr ~registry:r ~by:7 "interp.steps";
        let j = Chrome_trace.to_string ~metrics:r (golden_collector ()) in
        check Alcotest.bool "metrics json" true
          (Astring_like.contains j
             "\"metrics\":{\"interp.steps\":{\"type\":\"counter\",\"value\":7}}"));
  ]

(* End-to-end: a compiled-and-executed SAXPY reports into one collector;
   the executor's result record must agree with the span timeline. *)
let e2e_tests =
  [
    tc "pipeline reports spans end-to-end" (fun () ->
        let c = Span.create () in
        let run =
          Span.with_collector c (fun () ->
              Core.Run.run (Ftn_linpack.Fortran_sources.saxpy ~n:64))
        in
        let spans = Span.spans c in
        let with_name prefix =
          List.filter
            (fun (sp : Span.span) ->
              String.length sp.Span.name >= String.length prefix
              && String.sub sp.Span.name 0 (String.length prefix) = prefix)
            spans
        in
        check Alcotest.bool "has pass spans" true
          (List.length (with_name "pass.") >= 5);
        check Alcotest.bool "has synth span" true
          (with_name "synth.vpp" <> []);
        let sim track =
          List.filter
            (fun (sp : Span.span) ->
              sp.Span.clock = Span.Sim && Span.attr sp "track" = Some track)
            spans
        in
        let exec = run.Core.Run.exec in
        check Alcotest.int "one kernel span"
          exec.Ftn_runtime.Executor.kernel_launches
          (List.length (sim "kernel"));
        let sum track =
          List.fold_left (fun acc sp -> acc +. sp.Span.dur_s) 0.0 (sim track)
        in
        check (Alcotest.float 0.0) "kernel time from spans"
          exec.Ftn_runtime.Executor.kernel_time_s (sum "kernel");
        check (Alcotest.float 0.0) "transfer time from spans"
          exec.Ftn_runtime.Executor.transfer_time_s (sum "transfer");
        check (Alcotest.float 0.0) "overhead time from spans"
          exec.Ftn_runtime.Executor.overhead_time_s (sum "overhead"));
    tc "transfer trace events name the moved array" (fun () ->
        let run = Core.Run.run (Ftn_linpack.Fortran_sources.saxpy ~n:32) in
        let transfers =
          List.filter_map
            (function
              | Ftn_runtime.Trace.Transfer { name; _ } -> Some name
              | _ -> None)
            (Ftn_runtime.Trace.events
               run.Core.Run.exec.Ftn_runtime.Executor.trace)
        in
        check Alcotest.bool "has transfers" true (transfers <> []);
        List.iter
          (fun n -> check Alcotest.bool "named" true (n <> ""))
          transfers);
  ]

(* --- bucketed histograms and quantiles --- *)

let quantile_tests =
  [
    tc "single-value histogram is exact at every quantile" (fun () ->
        let r = Metrics.create () in
        for _ = 1 to 3 do
          Metrics.observe ~registry:r "h" 5.0
        done;
        List.iter
          (fun q ->
            match Metrics.histogram_quantile ~registry:r "h" q with
            | Some v -> check (Alcotest.float 1e-12) "exact" 5.0 v
            | None -> Alcotest.fail "expected a quantile")
          [ 0.0; 0.5; 0.9; 0.99; 1.0 ]);
    tc "quantiles of a uniform range are bucket-accurate" (fun () ->
        let r = Metrics.create () in
        for i = 1 to 1000 do
          Metrics.observe ~registry:r "h" (float_of_int i *. 1e-6)
        done;
        let expect q exact =
          match Metrics.histogram_quantile ~registry:r "h" q with
          | None -> Alcotest.fail "expected a quantile"
          | Some v ->
            (* one bucket spans a factor of 10^(1/4) ~ 1.78 *)
            check Alcotest.bool
              (Fmt.str "p%g within a bucket of %g (got %g)" (q *. 100.) exact v)
              true
              (v >= exact /. 1.8 && v <= exact *. 1.8)
        in
        expect 0.5 5e-4;
        expect 0.9 9e-4;
        expect 0.99 9.9e-4);
    tc "quantiles clamp to the observed min and max" (fun () ->
        let r = Metrics.create () in
        Metrics.observe ~registry:r "h" 2e-6;
        Metrics.observe ~registry:r "h" 8e-6;
        (match Metrics.histogram_quantile ~registry:r "h" 0.0 with
        | Some v -> check Alcotest.bool "p0 >= min" true (v >= 2e-6)
        | None -> Alcotest.fail "p0");
        match Metrics.histogram_quantile ~registry:r "h" 1.0 with
        | Some v -> check Alcotest.bool "p100 <= max" true (v <= 8e-6)
        | None -> Alcotest.fail "p100");
    tc "observations land in the bucket whose upper bound they equal"
      (fun () ->
        let r = Metrics.create () in
        let bound = Metrics.bucket_upper 10 in
        Metrics.observe ~registry:r "h" bound;
        match Metrics.find ~registry:r "h" with
        | Some (Metrics.Histogram_v { buckets; _ }) ->
          check Alcotest.int "le semantics" 1 buckets.(10)
        | _ -> Alcotest.fail "expected a histogram");
    tc "empty histogram has no quantiles" (fun () ->
        let empty =
          Metrics.Histogram_v
            {
              count = 0;
              sum = 0.0;
              min_v = infinity;
              max_v = neg_infinity;
              buckets = Array.make Metrics.n_buckets 0;
            }
        in
        check Alcotest.bool "no quantile" true
          (Metrics.quantile empty 0.5 = None));
    tc "counters add and histograms keep count, bounds and median"
      (fun () ->
        let r = Metrics.create () in
        Metrics.incr ~registry:r ~by:2 "c";
        Metrics.incr ~registry:r ~by:3 "c";
        Metrics.observe ~registry:r "h" 1e-6;
        Metrics.observe ~registry:r "h" 1e-3;
        Metrics.observe ~registry:r "h" 1e-3;
        check Alcotest.int "counter" 5 (Metrics.counter_value ~registry:r "c");
        match Metrics.find ~registry:r "h" with
        | Some (Metrics.Histogram_v { count; min_v; max_v; _ } as v) ->
          check Alcotest.int "count" 3 count;
          check (Alcotest.float 1e-12) "min" 1e-6 min_v;
          check (Alcotest.float 1e-12) "max" 1e-3 max_v;
          check Alcotest.bool "median in upper mass" true
            (match Metrics.quantile v 0.5 with
            | Some m -> m > 1e-5
            | None -> false)
        | _ -> Alcotest.fail "expected a histogram");
  ]

(* --- empty-histogram rendering (the count=0 sentinel fix) --- *)

let empty_hist =
  Metrics.Histogram_v
    {
      count = 0;
      sum = 0.0;
      min_v = infinity;
      max_v = neg_infinity;
      buckets = Array.make Metrics.n_buckets 0;
    }

let empty_render_tests =
  [
    tc "text render of an empty histogram omits min/mean/max" (fun () ->
        let s = Fmt.str "%a" Metrics.pp_value empty_hist in
        check Alcotest.bool "count=0" true (String.length s > 0);
        check Alcotest.bool "no inf" false
          (Astring_like.contains s "inf" || Astring_like.contains s "nan");
        check Alcotest.bool "no min" false (Astring_like.contains s "min"));
    tc "json render of an empty histogram omits derived fields" (fun () ->
        let s = Json.to_string (Metrics.json_of_value empty_hist) in
        check Alcotest.bool "has count" true
          (Astring_like.contains s "\"count\":0");
        List.iter
          (fun field ->
            check Alcotest.bool ("no " ^ field) false
              (Astring_like.contains s field))
          [ "min"; "max"; "mean"; "p50"; "p90"; "p99"; "buckets" ]);
    tc "populated histogram still renders quantiles" (fun () ->
        let r = Metrics.create () in
        Metrics.observe ~registry:r "h" 3e-6;
        match Metrics.find ~registry:r "h" with
        | Some v ->
          let s = Json.to_string (Metrics.json_of_value v) in
          List.iter
            (fun field ->
              check Alcotest.bool ("has " ^ field) true
                (Astring_like.contains s field))
            [ "min"; "max"; "mean"; "p50"; "p90"; "p99"; "buckets" ]
        | None -> Alcotest.fail "expected a histogram");
  ]

(* --- OpenMetrics exposition format --- *)

let openmetrics_tests =
  [
    tc "sanitize maps invalid chars and leading digits" (fun () ->
        check Alcotest.string "dots and dashes" "a_b_c"
          (Openmetrics.sanitize "a.b-c");
        check Alcotest.string "leading digit" "_9to5"
          (Openmetrics.sanitize "9to5");
        check Alcotest.string "kept" "ok_name:x" (Openmetrics.sanitize "ok_name:x"));
    tc "counters render as _total with a TYPE line" (fun () ->
        let r = Metrics.create () in
        Metrics.incr ~registry:r ~by:3 "device.allocs";
        let s = Openmetrics.render ~registry:r () in
        check Alcotest.bool "type line" true
          (Astring_like.contains s "# TYPE device_allocs counter");
        check Alcotest.bool "total sample" true
          (Astring_like.contains s "device_allocs_total 3"));
    tc "histograms render cumulative buckets, sum and count" (fun () ->
        let r = Metrics.create () in
        Metrics.observe ~registry:r "lat" 1e-6;
        Metrics.observe ~registry:r "lat" 1e-3;
        let s = Openmetrics.render ~registry:r () in
        check Alcotest.bool "type line" true
          (Astring_like.contains s "# TYPE lat histogram");
        check Alcotest.bool "inf bucket" true
          (Astring_like.contains s "lat_bucket{le=\"+Inf\"} 2");
        check Alcotest.bool "count" true (Astring_like.contains s "lat_count 2");
        check Alcotest.bool "sum" true (Astring_like.contains s "lat_sum"));
    tc "render terminates with EOF" (fun () ->
        let r = Metrics.create () in
        Metrics.set_gauge ~registry:r "g" 1.5;
        let s = Openmetrics.render ~registry:r () in
        check Alcotest.bool "eof" true
          (Astring_like.contains s "# EOF");
        check Alcotest.bool "gauge" true (Astring_like.contains s "g 1.5"));
  ]

(* --- flight recorder --- *)

let flight_tests =
  [
    tc "ring keeps the last capacity entries and counts drops" (fun () ->
        let r = Flight.create ~capacity:4 () in
        for i = 1 to 6 do
          Flight.recordf ~recorder:r ~cat:"op" "e%d" i
        done;
        check Alcotest.int "length" 4 (Flight.length ~recorder:r ());
        check Alcotest.int "dropped" 2 (Flight.dropped ~recorder:r ());
        let seqs =
          List.map (fun (e : Flight.entry) -> e.Flight.seq) (Flight.entries ~recorder:r ())
        in
        check (Alcotest.list Alcotest.int) "oldest first" [ 3; 4; 5; 6 ] seqs);
    tc "excerpt limits, indents and is empty when nothing recorded"
      (fun () ->
        let r = Flight.create ~capacity:8 () in
        check Alcotest.string "empty" "" (Flight.excerpt ~recorder:r ());
        for i = 1 to 5 do
          Flight.recordf ~recorder:r ~cat:"op" "e%d" i
        done;
        let ex = Flight.excerpt ~recorder:r ~limit:2 () in
        check Alcotest.bool "last kept" true (Astring_like.contains ex "e5");
        check Alcotest.bool "older dropped" false (Astring_like.contains ex "e3");
        check Alcotest.bool "indented" true (String.length ex > 2 && String.sub ex 0 2 = "  "));
    tc "set_capacity resizes and clear resets" (fun () ->
        let r = Flight.create ~capacity:2 () in
        Flight.record ~recorder:r ~cat:"op" "x";
        Flight.set_capacity ~recorder:r 8;
        check Alcotest.int "capacity" 8 (Flight.capacity ~recorder:r ());
        check Alcotest.int "entries discarded" 0 (Flight.length ~recorder:r ());
        Flight.record ~recorder:r ~cat:"op" "y";
        check Alcotest.bool "seq keeps increasing" true
          ((List.hd (Flight.entries ~recorder:r ())).Flight.seq > 1);
        Flight.clear ~recorder:r ();
        check Alcotest.int "cleared" 0 (Flight.length ~recorder:r ()));
    tc "entries carry loc and sim time into the rendered line" (fun () ->
        let r = Flight.create () in
        Flight.record ~recorder:r ~time_s:1.5e-6 ~loc:"t.f90:3:1" ~cat:"launch"
          "launch k";
        let ex = Flight.excerpt ~recorder:r () in
        check Alcotest.bool "msg" true (Astring_like.contains ex "launch k");
        check Alcotest.bool "loc" true (Astring_like.contains ex "t.f90:3:1");
        check Alcotest.bool "time" true (Astring_like.contains ex "1.500"));
  ]

(* --- profiler op counters --- *)

(* One offloaded loop for the profiled runs. *)
let profiled_src =
  "program p\nreal :: a(8)\ninteger :: i\n!$omp target parallel do\n\
   do i = 1, 8\na(i) = a(i) * 2.0\nend do\n\
   !$omp end target parallel do\nend program"

let profile_tests =
  [
    tc "count_op accumulates and top_ops sorts by count" (fun () ->
        Profile.reset ();
        for _ = 1 to 3 do
          Profile.count_op "arith.addf"
        done;
        Profile.count_op "memref.load";
        check Alcotest.int "total" 4 (Profile.total_ops ());
        (match Profile.top_ops 1 with
        | [ (name, n) ] ->
          check Alcotest.string "hottest" "arith.addf" name;
          check Alcotest.int "count" 3 n
        | _ -> Alcotest.fail "expected one op");
        Profile.reset ();
        check Alcotest.int "reset" 0 (Profile.total_ops ()));
    tc "op_counter returns the shared ref" (fun () ->
        Profile.reset ();
        let c = Profile.op_counter "scf.yield" in
        incr c;
        incr c;
        check Alcotest.int "shared" 2
          (match Profile.ops () with
          | [ ("scf.yield", n) ] -> n
          | _ -> -1);
        Profile.reset ());
    tc "both interpreter engines count the same ops" (fun () ->
        let count engine =
          Profile.reset ();
          Profile.set_enabled true;
          Fun.protect
            ~finally:(fun () -> Profile.set_enabled false)
            (fun () ->
              let art = Core.Compiler.compile profiled_src in
              let bs = Core.Compiler.synthesise art in
              ignore
                (Ftn_runtime.Executor.run ~engine
                   ~host:art.Core.Compiler.host ~bitstream:bs ());
              Profile.ops ())
        in
        (* the compiled engine resolves counters at closure-compile
           time, so ops that were compiled but never executed appear
           with count 0; compare executed counts only *)
        let executed l = List.filter (fun (_, n) -> n > 0) l in
        let tree = executed (count `Tree)
        and compiled = executed (count `Compiled) in
        Profile.reset ();
        check Alcotest.bool "nonempty" true (tree <> []);
        check
          Alcotest.(list (pair string int))
          "engines agree" tree compiled);
    tc "reruns of one artifact follow the profiling state" (fun () ->
        (* A rerun reuses the artifact's compiled code unless profiling
           was toggled or reset since it was compiled. *)
        let art = Core.Compiler.compile profiled_src in
        let bs = Core.Compiler.synthesise art in
        List.iter
          (fun (engine, name) ->
            let run profiled =
              Profile.set_enabled profiled;
              Fun.protect
                ~finally:(fun () -> Profile.set_enabled false)
                (fun () ->
                  ignore
                    (Ftn_runtime.Executor.run ~engine
                       ~host:art.Core.Compiler.host ~bitstream:bs ()));
              List.filter (fun (_, n) -> n > 0) (Profile.ops ())
            in
            Profile.reset ();
            let unprofiled = run false in
            let profiled = run true in
            Profile.reset ();
            let again = run true in
            Profile.reset ();
            let counts = Alcotest.(list (pair string int)) in
            check counts (name ^ ": unprofiled counts nothing") [] unprofiled;
            check Alcotest.bool (name ^ ": profiled counts") true
              (profiled <> []);
            check counts (name ^ ": the same counts after a reset") profiled
              again)
          [ (`Tree, "tree"); (`Compiled, "compiled") ]);
  ]

(* --- Json parser round-trips (qcheck properties) --- *)

let json_gen =
  let open QCheck.Gen in
  let any_string =
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 10)
  in
  let float_gen =
    oneofl
      [ 0.0; 1.0; -1.5; 3.25; 1e30; -2.5e-9; Float.nan; Float.infinity;
        Float.neg_infinity ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) float_gen;
        map (fun s -> Json.String s) any_string;
      ]
  in
  sized (fun size ->
      fix
        (fun self size ->
          if size <= 0 then scalar
          else
            frequency
              [
                (3, scalar);
                ( 1,
                  map
                    (fun xs -> Json.List xs)
                    (list_size (int_bound 4) (self (size / 2))) );
                ( 1,
                  map
                    (fun kvs -> Json.Obj kvs)
                    (list_size (int_bound 4)
                       (pair any_string (self (size / 2)))) );
              ])
        (min size 6))

let parse_exn s =
  match Json.parse s with
  | Ok v -> v
  | Error m -> QCheck.Test.fail_reportf "parse failed on %S: %s" s m

let json_prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~count:500 ~name:"string escaping round-trips any bytes"
        (QCheck.make
           QCheck.Gen.(
             string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 24))
           ~print:String.escaped)
        (fun s ->
          parse_exn (Json.to_string (Json.String s)) = Json.String s);
      QCheck.Test.make ~count:300
        ~name:"serialise/parse/serialise is idempotent (incl. non-finite)"
        (QCheck.make json_gen ~print:Json.to_string)
        (fun j ->
          let s = Json.to_string j in
          Json.to_string (parse_exn s) = s);
      QCheck.Test.make ~count:300
        ~name:"finite trees without floats round-trip structurally"
        (QCheck.make json_gen ~print:Json.to_string)
        (fun j ->
          (* floats legitimately re-parse to a different constructor
             (nan -> null) or lose precision; everything else must
             round-trip exactly *)
          let rec no_floats = function
            | Json.Float _ -> false
            | Json.List xs -> List.for_all no_floats xs
            | Json.Obj kvs -> List.for_all (fun (_, v) -> no_floats v) kvs
            | _ -> true
          in
          QCheck.assume (no_floats j);
          parse_exn (Json.to_string j) = j);
      QCheck.Test.make ~count:200 ~name:"control characters escape losslessly"
        (QCheck.make
           QCheck.Gen.(
             string_size ~gen:(map Char.chr (int_range 0 31)) (int_bound 12))
           ~print:String.escaped)
        (fun s ->
          let rendered = Json.to_string (Json.String s) in
          (* nothing below 0x20 may appear raw in the output *)
          String.for_all (fun c -> Char.code c >= 0x20) rendered
          && parse_exn rendered = Json.String s);
    ]

let () =
  Alcotest.run "obs"
    [
      ("spans", span_tests);
      ("metrics", metrics_tests);
      ("quantiles", quantile_tests);
      ("empty-histogram", empty_render_tests);
      ("openmetrics", openmetrics_tests);
      ("flight", flight_tests);
      ("profile", profile_tests);
      ("json-props", json_prop_tests);
      ("log", log_tests);
      ("chrome-trace", chrome_tests);
      ("e2e", e2e_tests);
    ]
