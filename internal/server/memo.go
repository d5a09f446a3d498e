package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// requestKey returns the canonical memoization key for a request: a
// kind-tagged SHA-256 of the request's canonical JSON encoding. encoding/json
// writes struct fields in declaration order, so two semantically identical
// requests hash identically; fields that cannot change the result (deadlines)
// must not appear in the hashed struct.
func requestKey(kind string, req any) (string, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("server: hashing %s request: %w", kind, err)
	}
	sum := sha256.Sum256(b)
	return kind + ":" + hex.EncodeToString(sum[:]), nil
}

// memoLRU is a bounded least-recently-used result cache. It is not
// self-locking: the Server's mutex guards every call.
type memoLRU struct {
	cap int
	ll  *list.List               // front = most recent
	m   map[string]*list.Element // key -> element holding *memoEntry
}

type memoEntry struct {
	key string
	val any
}

func newMemoLRU(capacity int) *memoLRU {
	return &memoLRU{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the cached value and refreshes its recency.
func (c *memoLRU) get(key string) (any, bool) {
	e, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*memoEntry).val, true
}

// add inserts or refreshes a value, evicting the least recent entry when
// over capacity.
func (c *memoLRU) add(key string, val any) {
	if c.cap <= 0 {
		return
	}
	if e, ok := c.m[key]; ok {
		e.Value.(*memoEntry).val = val
		c.ll.MoveToFront(e)
		return
	}
	c.m[key] = c.ll.PushFront(&memoEntry{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*memoEntry).key)
	}
}

// len reports the number of cached entries.
func (c *memoLRU) len() int { return c.ll.Len() }

// flight is one in-progress computation shared by every concurrent request
// with the same key (singleflight). The computation's context is cancelled
// when the last interested caller gives up, so an abandoned simulation
// stops burning CPU instead of running to completion for nobody.
type flight struct {
	done    chan struct{} // closed when val/err are set
	val     any
	err     error
	waiters int // guarded by Server.mu
	cancel  context.CancelFunc
}

// do returns the memoized value for key, joining an in-progress identical
// computation if one exists, or running fn otherwise. It reports whether the
// value came from the memo cache and whether this call shared another
// caller's flight. fn runs with a context descending from the server's base
// context (not from ctx: the computation must outlive any single caller
// that times out while others still wait); it is cancelled when every
// waiter has gone or the server shuts down.
func (s *Server) do(ctx context.Context, key string, fn func(context.Context) (any, error)) (val any, memoHit, shared bool, err error) {
	s.mu.Lock()
	if v, ok := s.memo.get(key); ok {
		s.mu.Unlock()
		return v, true, false, nil
	}
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.mu.Unlock()
		v, err := s.wait(ctx, f)
		return v, false, true, err
	}
	fctx, cancel := context.WithCancel(s.baseCtx)
	f := &flight{done: make(chan struct{}), waiters: 1, cancel: cancel}
	s.flights[key] = f
	s.mu.Unlock()

	go s.runFlight(fctx, key, f, fn)

	v, err := s.wait(ctx, f)
	return v, false, false, err
}

// runFlight executes one flight's computation and publishes its result.
func (s *Server) runFlight(fctx context.Context, key string, f *flight, fn func(context.Context) (any, error)) {
	val, err := s.withWorker(fctx, fn)
	s.mu.Lock()
	delete(s.flights, key)
	if err == nil {
		s.memo.add(key, val)
	}
	s.mu.Unlock()
	f.val, f.err = val, err
	close(f.done)
	f.cancel()
}

// withWorker runs fn under a worker-pool slot, waiting for one while the
// flight is still wanted.
func (s *Server) withWorker(fctx context.Context, fn func(context.Context) (any, error)) (any, error) {
	select {
	case s.workers <- struct{}{}:
	case <-fctx.Done():
		return nil, fctx.Err()
	}
	defer func() { <-s.workers }()
	return fn(fctx)
}

// wait blocks until the flight completes or the caller's context is done.
// The last waiter to abandon a still-running flight cancels it.
func (s *Server) wait(ctx context.Context, f *flight) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		s.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		s.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, ctx.Err()
	}
}
