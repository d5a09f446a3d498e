package server

import (
	"context"
	"fmt"

	"cacheeval/internal/experiments"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// Stream caching: materializing a mix's reference stream (synthesizing every
// member trace and interleaving them round-robin) is a meaningful fraction
// of a simulation's cost, and distinct requests routinely share a workload —
// e.g. evaluating several designs against the same mix, or re-sweeping with
// different sizes. The server therefore keeps a small LRU of materialized
// streams keyed by (limit semantics, mix, ref limit) and hands simulations
// the cached slice.
//
// Two limit semantics exist and must not share entries: /v1/evaluate caps
// the total interleaved stream (a prefix of the round-robin schedule),
// while /v1/sweep caps each member trace (experiments.Options.RefLimit),
// preserving round-robin structure at reduced scale. Both fill on up to
// SimWorkers goroutines, so a request's work stays within its worker's
// share.
//
// Cached slices are shared across concurrent simulations and are never
// mutated after insertion.

// streamKey returns the cache key for a materialized stream. mode is
// "total" (evaluate semantics) or "member" (sweep semantics).
func streamKey(mode, mix string, refLimit int) string {
	return fmt.Sprintf("stream:%s:%d:%s", mode, refLimit, mix)
}

// cachedStream returns the stream for key, materializing and caching it on
// a miss.
func (s *Server) cachedStream(key string, gen func() ([]trace.Ref, error)) ([]trace.Ref, error) {
	s.mu.Lock()
	if v, ok := s.streams.get(key); ok {
		s.mu.Unlock()
		s.metrics.streamHits.Add(1)
		return v.([]trace.Ref), nil
	}
	s.mu.Unlock()
	s.metrics.streamMisses.Add(1)
	refs, err := gen()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.streams.add(key, refs)
	s.mu.Unlock()
	return refs, nil
}

// mixStreamTotal materializes a mix's stream under evaluate semantics:
// refLimit caps the total interleaved stream.
func (s *Server) mixStreamTotal(ctx context.Context, mix workload.Mix, refLimit int) ([]trace.Ref, error) {
	return s.cachedStream(streamKey("total", mix.Name, refLimit), func() ([]trace.Ref, error) {
		return mix.Collect(ctx, s.cfg.SimWorkers, refLimit)
	})
}

// mixStreamPerMember materializes a mix's stream under sweep semantics:
// refLimit caps each member trace.
func (s *Server) mixStreamPerMember(ctx context.Context, mix workload.Mix, refLimit int) ([]trace.Ref, error) {
	return s.cachedStream(streamKey("member", mix.Name, refLimit), func() ([]trace.Ref, error) {
		return experiments.Options{RefLimit: refLimit, Workers: s.cfg.SimWorkers}.CollectMixContext(ctx, mix)
	})
}
