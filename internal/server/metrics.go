package server

import (
	"expvar"
	"net/http"

	"cacheeval/internal/obs"
)

// Metrics are the server's request counters: the instruments registered on
// the server's Prometheus registry (see buildProm for what each counts), so
// the text exposition, ?format=json and Snapshot all read one store.
type Metrics struct {
	requests, errors, timeouts            *obs.Counter
	simRuns, memoHits, memoMisses         *obs.Counter
	streamHits, streamMisses, flightJoins *obs.Counter
	jobRequests                           *obs.Counter
	simSeconds                            *obs.FloatCounter
	// evaluate / sweep time each handled request of the two simulation
	// endpoints: their count and sum are the request count and handler time.
	evaluate, sweep *obs.Histogram
	// srv supplies the lock-guarded cache sizes and the worker pool, whose
	// occupancy is the number of simulations in flight.
	srv *Server
}

// MetricsSnapshot is a point-in-time copy of the counters, shaped for JSON,
// plus the derived ratios and averages operators actually alert on. Ratios
// are 0 when their denominator is 0 and always within [0, 1].
type MetricsSnapshot struct {
	Requests         int64   `json:"requests"`
	MemoHits         int64   `json:"memo_hits"`
	MemoMisses       int64   `json:"memo_misses"`
	FlightJoins      int64   `json:"flight_joins"`
	InFlight         int64   `json:"in_flight"`
	SimRuns          int64   `json:"sim_runs"`
	SimSeconds       float64 `json:"sim_seconds"`
	Timeouts         int64   `json:"timeouts"`
	Errors           int64   `json:"errors"`
	StreamHits       int64   `json:"stream_hits"`
	StreamMisses     int64   `json:"stream_misses"`
	EvaluateRequests int64   `json:"evaluate_requests"`
	SweepRequests    int64   `json:"sweep_requests"`
	EvaluateNsTotal  int64   `json:"evaluate_ns_total"`
	SweepNsTotal     int64   `json:"sweep_ns_total"`
	JobRequests      int64   `json:"job_requests"`
	MemoEntries      int     `json:"memo_entries"`
	StreamEntries    int     `json:"stream_entries"`

	MemoHitRatio       float64 `json:"memo_hit_ratio"`
	StreamHitRatio     float64 `json:"stream_hit_ratio"`
	SimSecondsAvg      float64 `json:"sim_seconds_avg"`
	EvaluateSecondsAvg float64 `json:"evaluate_seconds_avg"`
	SweepSecondsAvg    float64 `json:"sweep_seconds_avg"`
}

// ratio returns total/n, or 0 when n is 0: a hit ratio or a mean that is
// 0, not NaN, before any traffic.
func ratio(total float64, n int64) float64 {
	if n > 0 {
		return total / float64(n)
	}
	return 0
}

// Snapshot copies the current counter values and derives the ratios and
// averages from them; the derived gauges on /metrics read it too.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := m.srv
	s.mu.Lock()
	memoEntries, streamEntries := s.memo.len(), s.streams.len()
	s.mu.Unlock()
	evalSum, sweepSum := m.evaluate.Sum(), m.sweep.Sum()
	snap := MetricsSnapshot{
		Requests:         m.requests.Value(),
		MemoHits:         m.memoHits.Value(),
		MemoMisses:       m.memoMisses.Value(),
		FlightJoins:      m.flightJoins.Value(),
		InFlight:         int64(len(s.workers)),
		SimRuns:          m.simRuns.Value(),
		SimSeconds:       m.simSeconds.Value(),
		Timeouts:         m.timeouts.Value(),
		Errors:           m.errors.Value(),
		StreamHits:       m.streamHits.Value(),
		StreamMisses:     m.streamMisses.Value(),
		EvaluateRequests: m.evaluate.Count(),
		SweepRequests:    m.sweep.Count(),
		EvaluateNsTotal:  int64(evalSum * 1e9),
		SweepNsTotal:     int64(sweepSum * 1e9),
		JobRequests:      m.jobRequests.Value(),
		MemoEntries:      memoEntries,
		StreamEntries:    streamEntries,
	}
	snap.MemoHitRatio = ratio(float64(snap.MemoHits), snap.MemoHits+snap.MemoMisses)
	snap.StreamHitRatio = ratio(float64(snap.StreamHits), snap.StreamHits+snap.StreamMisses)
	snap.SimSecondsAvg = ratio(snap.SimSeconds, snap.SimRuns)
	snap.EvaluateSecondsAvg = ratio(evalSum, snap.EvaluateRequests)
	snap.SweepSecondsAvg = ratio(sweepSum, snap.SweepRequests)
	return snap
}

func (s *Server) snapshot() MetricsSnapshot { return s.metrics.Snapshot() }

// handleMetrics serves GET /metrics: Prometheus text exposition by default,
// the same counters as a JSON snapshot with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "prometheus":
		s.prom.ServeText(w)
	case "json":
		writeJSON(w, http.StatusOK, s.snapshot())
	default:
		s.error(w, http.StatusBadRequest, "unknown metrics format "+strconvQuote(format))
	}
}

// ExpvarFunc returns an expvar.Func suitable for
// expvar.Publish("cacheserved", srv.ExpvarFunc()), for processes that also
// serve the standard /debug/vars endpoint.
func (s *Server) ExpvarFunc() expvar.Func {
	return func() any { return s.snapshot() }
}
