(* Verdict counts of the analyze workloads' blocks, recorded from certified
   runs (every verdict checked against an independent certificate) for
   every implement seed of the workloads' pools.  Keyed by block name,
   scale and implement seed.  An input with no entry here is checked
   against a certified run of it instead, and the run prints the entry it
   would have: to regenerate, delete the stale entries and run each
   analyze workload once. *)

type counts = { f : int; u : int; u_in : int; u_ex : int; smax : int; gmax : int }

let analyze : ((string * float * int) * counts) list =
  [
    (("wb_conmax", 1.0, 1), { f = 17524; u = 990; u_in = 634; u_ex = 356; smax = 568; gmax = 55 });
    (("wb_conmax", 1.0, 2), { f = 17575; u = 1000; u_in = 634; u_ex = 366; smax = 572; gmax = 56 });
    (("wb_conmax", 1.0, 3), { f = 17549; u = 990; u_in = 634; u_ex = 356; smax = 568; gmax = 54 });
    (("wb_conmax", 1.0, 4), { f = 17585; u = 1000; u_in = 634; u_ex = 366; smax = 573; gmax = 55 });
    (("aes_core", 1.0, 1), { f = 25095; u = 830; u_in = 519; u_ex = 311; smax = 706; gmax = 65 });
    (("aes_core", 1.0, 2), { f = 24851; u = 831; u_in = 519; u_ex = 312; smax = 716; gmax = 71 });
    (("aes_core", 1.0, 3), { f = 24742; u = 827; u_in = 519; u_ex = 308; smax = 705; gmax = 65 });
    (("aes_core", 1.0, 4), { f = 24868; u = 814; u_in = 519; u_ex = 295; smax = 695; gmax = 73 });
    (("des_perf", 1.0, 1), { f = 49581; u = 854; u_in = 513; u_ex = 341; smax = 532; gmax = 58 });
    (("des_perf", 1.0, 2), { f = 49678; u = 856; u_in = 513; u_ex = 343; smax = 529; gmax = 60 });
    (("des_perf", 1.0, 3), { f = 49413; u = 848; u_in = 513; u_ex = 335; smax = 529; gmax = 59 });
    (("des_perf", 1.0, 4), { f = 49579; u = 856; u_in = 513; u_ex = 343; smax = 532; gmax = 58 });
    (("des_perf", 1.0, 5), { f = 49798; u = 851; u_in = 513; u_ex = 338; smax = 529; gmax = 58 });
    (("des_perf", 1.0, 6), { f = 49836; u = 861; u_in = 513; u_ex = 348; smax = 533; gmax = 61 });
    (("des_perf", 1.0, 7), { f = 49727; u = 848; u_in = 513; u_ex = 335; smax = 526; gmax = 58 });
    (("des_perf", 1.0, 8), { f = 49881; u = 851; u_in = 513; u_ex = 338; smax = 535; gmax = 63 });
  ]
