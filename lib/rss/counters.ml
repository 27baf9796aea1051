type t = {
  mutable page_fetches : int;
  mutable buffer_hits : int;
  mutable rsi_calls : int;
  mutable pages_written : int;
  mutable sort_runs : int;
  mutable merge_passes : int;
  mutable plan_cache_hits : int;
  mutable plan_cache_misses : int;
  mutable plan_cache_invalidations : int;
  mutable plan_cache_evictions : int;
  mutable feedback_misestimates : int;
  mutable feedback_retirements : int;
  mutable group_commits : int;
  mutable wal_flushes : int;
  mutable subquery_calls : int;
  mutable subquery_evals : int;
  mutable statements_parsed : int;
  mutable nodes_compiled : int;
}

let create () =
  { page_fetches = 0;
    buffer_hits = 0;
    rsi_calls = 0;
    pages_written = 0;
    sort_runs = 0;
    merge_passes = 0;
    plan_cache_hits = 0;
    plan_cache_misses = 0;
    plan_cache_invalidations = 0;
    plan_cache_evictions = 0;
    feedback_misestimates = 0;
    feedback_retirements = 0;
    group_commits = 0;
    wal_flushes = 0;
    subquery_calls = 0;
    subquery_evals = 0;
    statements_parsed = 0;
    nodes_compiled = 0 }

let reset t =
  t.page_fetches <- 0;
  t.buffer_hits <- 0;
  t.rsi_calls <- 0;
  t.pages_written <- 0;
  t.sort_runs <- 0;
  t.merge_passes <- 0;
  t.plan_cache_hits <- 0;
  t.plan_cache_misses <- 0;
  t.plan_cache_invalidations <- 0;
  t.plan_cache_evictions <- 0;
  t.feedback_misestimates <- 0;
  t.feedback_retirements <- 0;
  t.group_commits <- 0;
  t.wal_flushes <- 0;
  t.subquery_calls <- 0;
  t.subquery_evals <- 0;
  t.statements_parsed <- 0;
  t.nodes_compiled <- 0

let snapshot t =
  { page_fetches = t.page_fetches;
    buffer_hits = t.buffer_hits;
    rsi_calls = t.rsi_calls;
    pages_written = t.pages_written;
    sort_runs = t.sort_runs;
    merge_passes = t.merge_passes;
    plan_cache_hits = t.plan_cache_hits;
    plan_cache_misses = t.plan_cache_misses;
    plan_cache_invalidations = t.plan_cache_invalidations;
    plan_cache_evictions = t.plan_cache_evictions;
    feedback_misestimates = t.feedback_misestimates;
    feedback_retirements = t.feedback_retirements;
    group_commits = t.group_commits;
    wal_flushes = t.wal_flushes;
    subquery_calls = t.subquery_calls;
    subquery_evals = t.subquery_evals;
    statements_parsed = t.statements_parsed;
    nodes_compiled = t.nodes_compiled }

let restore t ~from =
  t.page_fetches <- from.page_fetches;
  t.buffer_hits <- from.buffer_hits;
  t.rsi_calls <- from.rsi_calls;
  t.pages_written <- from.pages_written;
  t.sort_runs <- from.sort_runs;
  t.merge_passes <- from.merge_passes;
  t.plan_cache_hits <- from.plan_cache_hits;
  t.plan_cache_misses <- from.plan_cache_misses;
  t.plan_cache_invalidations <- from.plan_cache_invalidations;
  t.plan_cache_evictions <- from.plan_cache_evictions;
  t.feedback_misestimates <- from.feedback_misestimates;
  t.feedback_retirements <- from.feedback_retirements;
  t.group_commits <- from.group_commits;
  t.wal_flushes <- from.wal_flushes;
  t.subquery_calls <- from.subquery_calls;
  t.subquery_evals <- from.subquery_evals;
  t.statements_parsed <- from.statements_parsed;
  t.nodes_compiled <- from.nodes_compiled

let add t ~into =
  into.page_fetches <- into.page_fetches + t.page_fetches;
  into.buffer_hits <- into.buffer_hits + t.buffer_hits;
  into.rsi_calls <- into.rsi_calls + t.rsi_calls;
  into.pages_written <- into.pages_written + t.pages_written;
  into.sort_runs <- into.sort_runs + t.sort_runs;
  into.merge_passes <- into.merge_passes + t.merge_passes;
  into.plan_cache_hits <- into.plan_cache_hits + t.plan_cache_hits;
  into.plan_cache_misses <- into.plan_cache_misses + t.plan_cache_misses;
  into.plan_cache_invalidations <-
    into.plan_cache_invalidations + t.plan_cache_invalidations;
  into.plan_cache_evictions <- into.plan_cache_evictions + t.plan_cache_evictions;
  into.feedback_misestimates <- into.feedback_misestimates + t.feedback_misestimates;
  into.feedback_retirements <- into.feedback_retirements + t.feedback_retirements;
  into.group_commits <- into.group_commits + t.group_commits;
  into.wal_flushes <- into.wal_flushes + t.wal_flushes;
  into.subquery_calls <- into.subquery_calls + t.subquery_calls;
  into.subquery_evals <- into.subquery_evals + t.subquery_evals;
  into.statements_parsed <- into.statements_parsed + t.statements_parsed;
  into.nodes_compiled <- into.nodes_compiled + t.nodes_compiled

let diff ~after ~before =
  { page_fetches = after.page_fetches - before.page_fetches;
    buffer_hits = after.buffer_hits - before.buffer_hits;
    rsi_calls = after.rsi_calls - before.rsi_calls;
    pages_written = after.pages_written - before.pages_written;
    sort_runs = after.sort_runs - before.sort_runs;
    merge_passes = after.merge_passes - before.merge_passes;
    plan_cache_hits = after.plan_cache_hits - before.plan_cache_hits;
    plan_cache_misses = after.plan_cache_misses - before.plan_cache_misses;
    plan_cache_invalidations =
      after.plan_cache_invalidations - before.plan_cache_invalidations;
    plan_cache_evictions = after.plan_cache_evictions - before.plan_cache_evictions;
    feedback_misestimates =
      after.feedback_misestimates - before.feedback_misestimates;
    feedback_retirements = after.feedback_retirements - before.feedback_retirements;
    group_commits = after.group_commits - before.group_commits;
    wal_flushes = after.wal_flushes - before.wal_flushes;
    subquery_calls = after.subquery_calls - before.subquery_calls;
    subquery_evals = after.subquery_evals - before.subquery_evals;
    statements_parsed = after.statements_parsed - before.statements_parsed;
    nodes_compiled = after.nodes_compiled - before.nodes_compiled }

let cost ~w t =
  float_of_int (t.page_fetches + t.pages_written) +. (w *. float_of_int t.rsi_calls)

let pp ppf t =
  Format.fprintf ppf
    "fetches=%d hits=%d rsi=%d written=%d runs=%d merges=%d plan-cache=%d/%d/%d/%d \
     feedback=%d/%d group-commit=%d/%d"
    t.page_fetches t.buffer_hits t.rsi_calls t.pages_written t.sort_runs
    t.merge_passes t.plan_cache_hits t.plan_cache_misses
    t.plan_cache_invalidations t.plan_cache_evictions t.feedback_misestimates
    t.feedback_retirements t.group_commits t.wal_flushes
