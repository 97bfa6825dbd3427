package main

import "spthreads/pthread"

// This file is the only place that names the runtime's own instruments.
// They are read from Stats.Metrics of traced native runs and never gate:
// a name the library no longer emits is reported absent, not as an error.

// attachInstruments gives a traced run a metrics registry to fill.
func attachInstruments(cfg *pthread.Config) { cfg.Metrics = pthread.NewMetrics() }

// readInstruments turns the registries of one traced pass (one sample
// per program) into per-layer rows. Counters and the lock-wait sum add
// up over the pass's programs; the percentiles are those of the program
// that dispatched most. A row is missing when no program had its
// instrument.
func readInstruments(pass []sample, ops int64) map[string]float64 {
	rows := map[string]float64{}
	most := int64(-1)
	for _, s := range pass {
		snap := s.st.Metrics
		if snap == nil {
			continue
		}
		if h, ok := snap.Histograms["sched.lock.wait"]; ok {
			rows["native.sched_lock_wait_ns_per_op"] += float64(h.Sum) / float64(ops)
		}
		if h, ok := snap.Histograms["sched.dispatch.wait"]; ok && h.Count > most {
			most = h.Count
			rows["native.dispatch_wait_p50_ns"] = float64(h.P50)
			rows["native.dispatch_wait_p99_ns"] = float64(h.P99)
			if hh, ok := snap.Histograms["sched.resume.handoff"]; ok {
				rows["native.resume_handoff_p50_ns"] = float64(hh.P50)
			}
		}
		if c, ok := snap.Counters["sched.quota.preempts"]; ok {
			rows["native.quota_preempts"] += float64(c)
		}
		if c, ok := snap.Counters["sched.steal.count"]; ok {
			rows["native.steals"] += float64(c)
		}
	}
	return rows
}
