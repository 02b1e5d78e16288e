package main

// metricDef describes one metric the benchmark prints. Bound is the share
// of the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none. Exact marks a
// per-layer count that is bit-identical across runs with the same seed.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// endToEnd is what a user of the system sees; the same nine names on every
// workload. BENCHMARK.json carries the same table (bench_test.go holds the
// two together). The bounds are max(the issue's floor, 3 × the difference
// -selfcheck observed between two sets of runs of the same code); a metric
// that would need more than the pipeline's 0.25 is no end-to-end metric
// (pause_p50_ms: README.md, End-to-end metrics).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "epochs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "overhead_pct", Unit: "%", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_epoch", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "pause_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "log_bytes_per_epoch", Unit: "bytes", Better: "lower", Bound: 0.005},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rewind_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer is the traced round's view, one prefix per module.
var perLayer = []metricDef{
	{Name: "workload.step_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "workload.marks_per_epoch", Unit: "count", Better: "lower", Exact: true},
	{Name: "workload.base_step_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "workload.pause_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "ckpt.tracker.dirty_per_epoch", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.tracker.barrier_ns_per_mark", Unit: "ns", Better: "lower"},
	{Name: "ckpt.tracker.watch_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.tracker.forced_full", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.tracker.degraded", Unit: "count", Better: "lower", Exact: true},

	{Name: "ckpt.writer.fold_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "ckpt.writer.fold_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "ckpt.writer.visited_per_epoch", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.writer.recorded_per_epoch", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.writer.skipped_per_epoch", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.writer.recorded_per_visited", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "ckpt.writer.ns_per_recorded", Unit: "ns", Better: "lower"},
	{Name: "ckpt.writer.body_bytes_per_epoch", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "ckpt.writer.full_fold_ms", Unit: "ms", Better: "lower"},

	{Name: "ckpt.shadow.delta_records_per_epoch", Unit: "count", Better: "higher", Exact: true},
	{Name: "ckpt.shadow.wins", Unit: "count", Better: "higher", Exact: true},
	{Name: "ckpt.shadow.losses", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.shadow.skipped_emits", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.shadow.entries", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.shadow.encoded_per_raw_bytes", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "ckpt.parfold.fold_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "ckpt.parfold.workers", Unit: "count", Better: "higher"},
	{Name: "ckpt.parfold.shards", Unit: "count", Better: "higher"},

	{Name: "ckpt.session.commits", Unit: "count", Better: "higher", Exact: true},
	{Name: "ckpt.session.aborts", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.session.remarked", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.session.unresolved", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.session.forced_full", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.session.pending_max", Unit: "count", Better: "lower"},
	{Name: "ckpt.session.ack_cb_us_per_epoch", Unit: "us", Better: "lower"},

	{Name: "ckpt.tenant.request_us_p50", Unit: "us", Better: "lower"},
	{Name: "ckpt.tenant.request_us_p99", Unit: "us", Better: "lower"},
	{Name: "ckpt.tenant.flush_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "ckpt.tenant.folds", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.tenant.full_folds", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.tenant.coalesced", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.tenant.shed", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.tenant.aborted", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.tenant.retried", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.tenant.bytes_per_fold", Unit: "bytes", Better: "lower", Exact: true},

	{Name: "stablelog.async.handoff_us_p50", Unit: "us", Better: "lower"},
	{Name: "stablelog.async.handoff_us_p99", Unit: "us", Better: "lower"},
	{Name: "stablelog.async.ack_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "stablelog.async.ack_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "stablelog.async.in_flight_max", Unit: "count", Better: "lower"},
	{Name: "stablelog.async.acked", Unit: "count", Better: "higher", Exact: true},
	{Name: "stablelog.async.dropped", Unit: "count", Better: "lower", Exact: true},
	{Name: "stablelog.async.retried", Unit: "count", Better: "lower", Exact: true},
	{Name: "stablelog.async.final_flush_ms", Unit: "ms", Better: "lower"},

	{Name: "stablelog.fs.writes_per_epoch", Unit: "count", Better: "lower", Exact: true},
	{Name: "stablelog.fs.write_bytes_per_epoch", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "stablelog.fs.fsyncs_per_epoch", Unit: "count", Better: "lower", Exact: true},
	{Name: "stablelog.fs.write_ms_per_epoch", Unit: "ms", Better: "lower"},
	{Name: "stablelog.fs.fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "stablelog.fs.fsync_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "stablelog.fs.bytes_per_body_byte", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "stablelog.fs.read_bytes_recover", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "stablelog.fs.reads_recover", Unit: "count", Better: "lower", Exact: true},

	{Name: "stablelog.log.open_ms", Unit: "ms", Better: "lower"},
	{Name: "stablelog.log.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "stablelog.log.recover_segments", Unit: "count", Better: "lower", Exact: true},
	{Name: "stablelog.log.recover_bytes", Unit: "bytes", Better: "lower", Exact: true},
	{Name: "stablelog.log.retain_ms", Unit: "ms", Better: "lower"},
	{Name: "stablelog.log.retained_per_raw_bytes", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "stablelog.log.rewind_segments_p50", Unit: "count", Better: "lower", Exact: true},
	{Name: "stablelog.log.rewind_bytes_p50", Unit: "bytes", Better: "lower", Exact: true},

	{Name: "ckpt.rebuilder.build_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.rebuilder.objects", Unit: "count", Better: "lower", Exact: true},
	{Name: "ckpt.rebuilder.tenant_recover_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "bench.alloc_bytes_per_epoch", Unit: "bytes", Better: "lower"},
	{Name: "bench.mallocs_per_epoch", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.reconcile_err_pct", Unit: "%", Better: "lower"},
	{Name: "bench.speed_factor", Unit: "ratio", Better: "lower"},
}

// layerInput is everything a round measured that the per-layer metrics are
// derived from.
type layerInput struct {
	p                 *pass
	c                 counts // the pass's share of the layer counters
	final             counts
	fsPass, fsRecover fsCounts
	fsyncNs           []int64
	baseNsPerEpoch    float64
	speed             float64
	openNs            int64
	tap               *ackTap
	rst               restartStats
	mst               maintStats
	setup             setupStats
	allocBytes        float64
	mallocs           float64
}

// reconcileTolerancePct is the share of a timed interval the spans may fail
// to account for before the round fails.
const reconcileTolerancePct = 5.0

// layerMetrics fills res.layer (traced rounds) and res.exact (always: the
// counts that must repeat for a seed), and applies the reconciliation gates.
func layerMetrics(res *roundResult, in layerInput) {
	epochs := float64(res.Epochs)
	c := in.c
	if in.mst.audited {
		c[cRecorded], c[cDeltas] = in.mst.auditRecords, in.mst.auditDeltas
	}
	per := func(i int) float64 { return float64(c[i]) / epochs }
	incr := epochs - float64(c[cFullFolds]) // epochs that drained the tracker

	m := map[string]float64{
		"workload.marks_per_epoch":     float64(in.p.marks) / epochs,
		"ckpt.tracker.dirty_per_epoch": ratio(float64(c[cDirty]), incr),
		"ckpt.tracker.forced_full":     float64(c[cTrackerForcedFull]),
		"ckpt.tracker.degraded":        float64(c[cTrackerDegraded]),
		"ckpt.tracker.watch_ms":        float64(in.setup.watchNs) / 1e6,

		"ckpt.writer.visited_per_epoch":    per(cVisited),
		"ckpt.writer.recorded_per_epoch":   per(cRecorded),
		"ckpt.writer.skipped_per_epoch":    per(cSkipped),
		"ckpt.writer.recorded_per_visited": ratio(float64(c[cRecorded]), float64(c[cVisited])),
		"ckpt.writer.body_bytes_per_epoch": per(cBodyBytes),
		"ckpt.writer.full_fold_ms":         ratio(float64(c[cFullFoldNs])/1e6, float64(c[cFullFolds])),

		"ckpt.shadow.delta_records_per_epoch": per(cDeltas),
		"ckpt.shadow.wins":                    float64(c[cShadowWins]),
		"ckpt.shadow.losses":                  float64(c[cShadowLosses]),
		"ckpt.shadow.skipped_emits":           float64(c[cShadowSkipped]),
		"ckpt.shadow.entries":                 float64(in.final[cShadowEntries]),
		"ckpt.shadow.encoded_per_raw_bytes":   ratio(float64(c[cBodyBytes]), float64(c[cRawBytes])),

		"ckpt.parfold.workers": float64(in.setup.workers),
		"ckpt.parfold.shards":  float64(in.setup.shards),

		"ckpt.session.commits":     float64(c[cCommits]),
		"ckpt.session.aborts":      float64(c[cAborts]),
		"ckpt.session.remarked":    float64(c[cRemarked]),
		"ckpt.session.unresolved":  float64(c[cUnresolved]),
		"ckpt.session.forced_full": float64(c[cSessionForcedFull]),

		"ckpt.tenant.folds":          float64(c[cTenantFolds]),
		"ckpt.tenant.full_folds":     float64(c[cTenantFullFolds]),
		"ckpt.tenant.coalesced":      float64(c[cTenantCoalesced]),
		"ckpt.tenant.shed":           float64(c[cTenantShed]),
		"ckpt.tenant.aborted":        float64(c[cTenantAborted]),
		"ckpt.tenant.retried":        float64(c[cTenantRetried]),
		"ckpt.tenant.bytes_per_fold": ratio(float64(c[cTenantBytes]), float64(c[cTenantFolds])),

		"stablelog.async.acked":   float64(c[cAcked]),
		"stablelog.async.dropped": float64(c[cDropped]),
		"stablelog.async.retried": float64(c[cRetried]),

		"stablelog.fs.writes_per_epoch":      float64(in.fsPass.writes) / epochs,
		"stablelog.fs.write_bytes_per_epoch": float64(in.fsPass.writeBytes) / epochs,
		"stablelog.fs.fsyncs_per_epoch":      float64(in.fsPass.fsyncs) / epochs,
		"stablelog.fs.write_ms_per_epoch":    float64(in.fsPass.writeNs) / 1e6 / epochs,
		"stablelog.fs.fsync_ms_p50":          quantileNs(in.fsyncNs, 0.50, 1e6),
		"stablelog.fs.fsync_ms_p99":          quantileNs(in.fsyncNs, 0.99, 1e6),
		"stablelog.fs.bytes_per_body_byte":   ratio(float64(in.fsPass.writeBytes), float64(c[cBodyBytes]+c[cTenantBytes])),
		"stablelog.fs.read_bytes_recover":    float64(in.fsRecover.readBytes),
		"stablelog.fs.reads_recover":         float64(in.fsRecover.reads),

		"stablelog.log.open_ms":                float64(in.openNs) / 1e6,
		"stablelog.log.recover_segments":       float64(in.rst.segments),
		"stablelog.log.recover_bytes":          float64(in.rst.bytes),
		"stablelog.log.retain_ms":              float64(in.mst.retainNs) / 1e6,
		"stablelog.log.retained_per_raw_bytes": ratio(float64(in.mst.retainedBytes), float64(in.mst.rawBytes)),
		"stablelog.log.rewind_segments_p50":    quantileNs(in.mst.rewindSegs, 0.50, 1),
		"stablelog.log.rewind_bytes_p50":       quantileNs(in.mst.rewindBytes, 0.50, 1),

		"ckpt.rebuilder.objects":               float64(in.rst.objects),
		"ckpt.rebuilder.tenant_recover_ms_p50": quantileNs(in.rst.unitRecoverNs, 0.50, 1e6),
	}
	if in.tap != nil {
		m["stablelog.async.ack_lag_ms_p50"] = quantileNs(in.tap.lagNs, 0.50, 1e6)
		m["stablelog.async.ack_lag_ms_p99"] = quantileNs(in.tap.lagNs, 0.99, 1e6)
		m["ckpt.session.ack_cb_us_per_epoch"] = float64(in.tap.cbNs.Load()) / 1e3 / epochs
	}
	for _, d := range perLayer {
		if d.Exact {
			res.Exact[d.Name] = m[d.Name]
		}
	}
	// The three workloads without a shadow cache must never ship a delta.
	if in.final[cShadowEntries] == 0 && c[cDeltas] != 0 {
		res.fail(1, "%d delta records from a workload with no shadow cache", c[cDeltas])
	}
	tr := res.tr
	if tr == nil {
		return
	}
	step := tr.durations(spStep)
	fold := tr.durations(in.p.foldKind)
	handoff := tr.durations(spHandoff)
	flush := tr.durations(spFlush)
	stepMs := float64(sumNs(step)) / 1e6 / epochs
	m["workload.step_ms_per_epoch"] = stepMs
	m["workload.base_step_ms_per_epoch"] = in.baseNsPerEpoch / 1e6
	m["workload.pause_p50_ms"] = quantileNs(in.p.pauses, 0.50, 1e6)
	m["ckpt.tracker.barrier_ns_per_mark"] = ratio(stepMs*1e6-in.baseNsPerEpoch, float64(in.p.marks)/epochs)
	foldMs := float64(sumNs(fold)) / 1e6 / epochs
	if in.p.foldKind == spTenantRequest {
		m["ckpt.tenant.request_us_p50"] = quantileNs(fold, 0.50, 1e3)
		m["ckpt.tenant.request_us_p99"] = quantileNs(fold, 0.99, 1e3)
		m["ckpt.tenant.flush_ms_per_step"] = ratio(float64(sumNs(flush))/1e6, float64(len(flush)))
	} else {
		// A parallel folder drives ckpt.Writers; their span is the folder's.
		m["ckpt.writer.fold_ms_per_epoch"] = foldMs
		m["ckpt.writer.fold_ms_p99"] = quantileNs(fold, 0.99, 1e6)
		m["ckpt.writer.ns_per_recorded"] = ratio(float64(sumNs(fold)), float64(c[cRecorded]))
		if in.p.foldKind == spParfoldFold {
			m["ckpt.parfold.fold_ms_per_epoch"] = foldMs
		}
	}
	m["stablelog.async.handoff_us_p50"] = quantileNs(handoff, 0.50, 1e3)
	m["stablelog.async.handoff_us_p99"] = quantileNs(handoff, 0.99, 1e3)
	if n := len(flush); n > 0 {
		m["stablelog.async.final_flush_ms"] = float64(flush[n-1]) / 1e6
	}
	m["stablelog.async.in_flight_max"] = float64(in.p.inFlightMax)
	m["ckpt.session.pending_max"] = float64(in.p.pendingMax)
	m["stablelog.log.recover_ms"] = float64(sumNs(tr.durations(spRecover))) / 1e6
	m["ckpt.rebuilder.build_ms"] = float64(sumNs(tr.durations(spBuild))) / 1e6
	m["bench.speed_factor"] = in.speed
	m["bench.alloc_bytes_per_epoch"] = in.allocBytes / epochs
	m["bench.mallocs_per_epoch"] = in.mallocs / epochs

	// Reconciliation gates: the spans on the mutator's thread must account
	// for the pass, and open + recover + build for the restart.
	total, untracked := tr.reconcile(spPass)
	passErr := 100 * ratio(float64(untracked), float64(total))
	total, untracked = tr.reconcile(spRestart)
	restartErr := 100 * ratio(float64(untracked), float64(total))
	m["bench.reconcile_err_pct"] = max(passErr, restartErr)
	if passErr > reconcileTolerancePct {
		res.fail(1, "pass spans leave %.1f%% of the pass wall time unaccounted for", passErr)
	}
	if restartErr > reconcileTolerancePct {
		res.fail(1, "open+recover+build leave %.1f%% of recover_s unaccounted for", restartErr)
	}
	// A layer the workload bypasses reports 0 for its timings too. The
	// tracing overhead needs the untraced rounds and is the run's to fill in.
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok && d.Name != "bench.trace_overhead_pct" {
			m[d.Name] = 0
		}
	}
	res.Layer = m
}
