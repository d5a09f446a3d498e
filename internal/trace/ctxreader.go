package trace

import (
	"context"
	"io"
)

// ctxCheckInterval is how many references a ContextReader passes through
// between context polls. Polling every reference would put an atomic load on
// the simulator's innermost loop; every 1024 references keeps cancellation
// latency far below a millisecond at simulation speeds while costing nothing
// measurable.
const ctxCheckInterval = 1024

// ContextReader wraps a Reader and aborts the stream with the context's
// error once the context is cancelled or its deadline passes. It is how
// long-running simulations honour per-request deadlines: every layer that
// consumes the stream (System.Run, Collect, MultiSystem.Run) stops at the
// first non-EOF error.
type ContextReader struct {
	ctx   context.Context
	r     Reader
	until int
}

// NewContextReader wraps r so that Read fails with ctx.Err() shortly after
// ctx is done. If ctx is nil or has no cancellation (context.Background()),
// r is returned unwrapped.
func NewContextReader(ctx context.Context, r Reader) Reader {
	if ctx == nil || ctx.Done() == nil {
		return r
	}
	return &ContextReader{ctx: ctx, r: r}
}

// Read returns the next reference, or the context's error once it is done.
func (c *ContextReader) Read() (Ref, error) {
	if c.until <= 0 {
		if err := c.ctx.Err(); err != nil {
			return Ref{}, err
		}
		c.until = ctxCheckInterval
	}
	c.until--
	return c.r.Read()
}

// RestSlice forwards to the wrapped reader's Slicer when it has one,
// checking the context once; ok=false when the context is done or the
// wrapped reader cannot share its backing slice.
func (c *ContextReader) RestSlice() ([]Ref, bool) {
	if c.ctx.Err() != nil {
		return nil, false
	}
	if sl, ok := c.r.(Slicer); ok {
		return sl.RestSlice()
	}
	return nil, false
}

// Skip forwards to the wrapped reader's Skipper when it has one (checking
// the context once per call — a skip does no simulation work, so coarser
// cancellation granularity costs nothing), and otherwise discards
// references one Read at a time.
func (c *ContextReader) Skip(n int) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	if sk, ok := c.r.(Skipper); ok {
		return sk.Skip(n)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Read(); err != nil {
			if err == io.EOF {
				return i, nil
			}
			return i, err
		}
	}
	return n, nil
}
