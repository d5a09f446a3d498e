package trace

import "io"

// LimitReader returns a Reader that yields at most n references from r.
type LimitReader struct {
	r Reader
	n int
}

// NewLimitReader wraps r so that at most n references are produced. A
// non-positive n yields an empty stream.
func NewLimitReader(r Reader, n int) *LimitReader { return &LimitReader{r: r, n: n} }

// Read returns the next reference or io.EOF once the limit is reached.
func (l *LimitReader) Read() (Ref, error) {
	if l.n <= 0 {
		return Ref{}, io.EOF
	}
	l.n--
	return l.r.Read()
}

// Remaining reports how many more references the limit allows.
func (l *LimitReader) Remaining() int {
	if l.n < 0 {
		return 0
	}
	return l.n
}

// Concat chains readers: when one returns io.EOF the next takes over.
type Concat struct {
	rs []Reader
}

// NewConcat returns a Reader producing the concatenation of rs in order.
func NewConcat(rs ...Reader) *Concat { return &Concat{rs: rs} }

// Read returns the next reference from the first non-exhausted reader.
func (c *Concat) Read() (Ref, error) {
	for len(c.rs) > 0 {
		ref, err := c.rs[0].Read()
		if err == io.EOF {
			c.rs = c.rs[1:]
			continue
		}
		return ref, err
	}
	return Ref{}, io.EOF
}

// FilterReader passes through only references for which keep returns true.
type FilterReader struct {
	r    Reader
	keep func(Ref) bool
}

// NewFilterReader wraps r with a predicate.
func NewFilterReader(r Reader, keep func(Ref) bool) *FilterReader {
	return &FilterReader{r: r, keep: keep}
}

// Read returns the next reference satisfying the predicate.
func (f *FilterReader) Read() (Ref, error) {
	for {
		ref, err := f.r.Read()
		if err != nil {
			return Ref{}, err
		}
		if f.keep(ref) {
			return ref, nil
		}
	}
}

// OnlyKind returns a reader that keeps only references of kind k, e.g. to
// drive a dedicated instruction-cache simulation from a unified trace.
func OnlyKind(r Reader, k Kind) *FilterReader {
	return NewFilterReader(r, func(ref Ref) bool { return ref.Kind == k })
}

// OnlyData returns a reader that keeps reads and writes.
func OnlyData(r Reader) *FilterReader {
	return NewFilterReader(r, func(ref Ref) bool { return ref.Kind.IsData() })
}

// MapReader rewrites each reference with fn, e.g. to relocate a trace to a
// disjoint address region.
type MapReader struct {
	r  Reader
	fn func(Ref) Ref
}

// NewMapReader wraps r with a rewriting function.
func NewMapReader(r Reader, fn func(Ref) Ref) *MapReader { return &MapReader{r: r, fn: fn} }

// Read returns the next rewritten reference.
func (m *MapReader) Read() (Ref, error) {
	ref, err := m.r.Read()
	if err != nil {
		return Ref{}, err
	}
	return m.fn(ref), nil
}

// Rebase returns a reader that ORs each address with base, giving a trace a
// disjoint address-space prefix the way workload.Mix.Collect gives each
// program of a multiprogramming mix one (the paper purges on task switch,
// so spaces must not alias).
func Rebase(r Reader, base uint64) *MapReader {
	return NewMapReader(r, func(ref Ref) Ref {
		ref.Addr |= base
		return ref
	})
}

// TeeReader forwards every reference it reads to w before returning it.
type TeeReader struct {
	r Reader
	w Writer
}

// NewTeeReader returns a Reader that mirrors r into w.
func NewTeeReader(r Reader, w Writer) *TeeReader { return &TeeReader{r: r, w: w} }

// Read reads one reference, writing it through to the Writer on success.
func (t *TeeReader) Read() (Ref, error) {
	ref, err := t.r.Read()
	if err != nil {
		return Ref{}, err
	}
	if err := t.w.Write(ref); err != nil {
		return Ref{}, err
	}
	return ref, nil
}
