package physical

import (
	"context"
	"sync"
)

// Admission is the server-wide generalization of MemGovernor: one global
// byte budget shared by every concurrent query that can use memory. Each
// such query asks for a slice of the budget once it is planned and before
// it executes (Acquire); a plan that never reserves (PipelineOnly) does not
// ask, and so never queues behind the ones that do. The controller grants
// slices FIFO so the sum of outstanding grants never exceeds the global
// budget, and queries that do not fit yet block — in arrival order — until
// running queries release their grants. A granted query gets a child
// MemGovernor whose budget is its grant, so it degrades to spilling under
// its slice exactly as a one-shot -mem-budget query would, while the shared
// parent ledger tracks the true aggregate so the server's peak governed
// memory is observable (and bounded by budget + the per-query forced slack
// the spilling operators already document: at most one batch per spill
// stream).
//
// The controller queues rather than rejects: admission pressure converts
// into latency, spilling converts grant pressure into disk, and the only
// errors Acquire returns are the caller's own context expiring — a timeout
// or a disconnected client. Strict FIFO (only the queue head is ever
// served) keeps admission starvation-free: a large request at the head is
// never bypassed by small ones behind it.
//
// A nil *Admission means no global budget: Acquire returns a nil Grant
// whose Gov is nil, i.e. ungoverned execution — the same convention a nil
// *MemGovernor carries.
type Admission struct {
	budget int64
	ledger *MemGovernor // shared parent of every grant's governor

	mu      sync.Mutex
	granted int64
	waiters []*admitWaiter

	peakGranted int64
	admitted    int64 // total queries ever granted (stats)
	queuedEver  int64 // total queries that had to wait (stats)
}

type admitWaiter struct {
	want  int64
	ready chan *Grant
	// abandoned marks a waiter whose Acquire returned (context expired)
	// before it was served; release scans past it without granting.
	abandoned bool
}

// NewAdmission returns an admission controller over a global budget of b
// bytes, or nil (no admission, unlimited) when b <= 0.
func NewAdmission(b int64) *Admission {
	if b <= 0 {
		return nil
	}
	return &Admission{budget: b, ledger: &MemGovernor{budget: b}}
}

// Budget reports the global budget (0 on nil).
func (a *Admission) Budget() int64 {
	if a == nil {
		return 0
	}
	return a.budget
}

// Granted reports the sum of outstanding grants.
func (a *Admission) Granted() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.granted
}

// PeakGranted reports the high-water mark of outstanding grants.
func (a *Admission) PeakGranted() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peakGranted
}

// InUse reports the aggregate bytes currently tracked by every grant's
// governor — true usage, not grant reservations.
func (a *Admission) InUse() int64 {
	if a == nil {
		return 0
	}
	return a.ledger.InUse()
}

// Peak reports the server-wide high-water mark of governed bytes across all
// grants, forced slack included.
func (a *Admission) Peak() int64 {
	if a == nil {
		return 0
	}
	return a.ledger.Peak()
}

// QueueLen reports how many queries are currently blocked in Acquire.
func (a *Admission) QueueLen() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, w := range a.waiters {
		if !w.abandoned {
			n++
		}
	}
	return n
}

// Stats reports cumulative admission counters: queries granted and queries
// that had to queue before being granted or giving up.
func (a *Admission) Stats() (admitted, queued int64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.admitted, a.queuedEver
}

// Acquire blocks until want bytes of the global budget can be granted, FIFO
// with every other waiter, or until ctx is done. want is clamped to the
// global budget (a query asking for more than the server has gets the whole
// budget and spills harder — it blocks until it runs alone) and to a 1-byte
// minimum so a zero request still serializes through admission. On success
// the returned Grant carries a child MemGovernor enforcing the granted
// slice; the caller must Release it when the query finishes, errors, or is
// abandoned. On a nil controller Acquire returns (nil, nil): a nil Grant is
// valid and its Gov is the nil (unlimited) governor.
func (a *Admission) Acquire(ctx context.Context, want int64) (*Grant, error) {
	if a == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if want > a.budget {
		want = a.budget
	}
	if want < 1 {
		want = 1
	}
	a.mu.Lock()
	if len(a.waiters) == 0 && a.granted+want <= a.budget {
		a.granted += want
		if a.granted > a.peakGranted {
			a.peakGranted = a.granted
		}
		a.admitted++
		a.mu.Unlock()
		return &Grant{a: a, bytes: want, gov: NewChildGovernor(a.ledger, want)}, nil
	}
	w := &admitWaiter{want: want, ready: make(chan *Grant, 1)}
	a.waiters = append(a.waiters, w)
	a.queuedEver++
	a.mu.Unlock()

	select {
	case g := <-w.ready:
		return g, nil
	case <-ctx.Done():
		a.mu.Lock()
		// The grant may have raced the cancellation: if it is already in
		// the channel, take it back and release it so the budget is not
		// leaked by a client that stopped waiting.
		select {
		case g := <-w.ready:
			a.mu.Unlock()
			g.Release()
			return nil, ctx.Err()
		default:
		}
		w.abandoned = true
		a.compactLocked()
		a.mu.Unlock()
		return nil, ctx.Err()
	}
}

// Grant is an admitted query's slice of the global budget. Release returns
// the slice and wakes queued queries; it is idempotent, so deferred cleanup
// and error paths may both call it.
type Grant struct {
	a        *Admission
	bytes    int64
	gov      *MemGovernor
	released bool
	mu       sync.Mutex
}

// Gov returns the grant's memory governor: a child of the server ledger
// enforcing the granted slice. Nil (unlimited) on a nil grant.
func (g *Grant) Gov() *MemGovernor {
	if g == nil {
		return nil
	}
	return g.gov
}

// Bytes reports the granted slice size (0 on nil).
func (g *Grant) Bytes() int64 {
	if g == nil {
		return 0
	}
	return g.bytes
}

// Release returns the grant to the global budget and serves queued waiters
// in FIFO order. Idempotent and nil-safe.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	done := g.released
	g.released = true
	g.mu.Unlock()
	if done {
		return
	}
	a := g.a
	a.mu.Lock()
	a.granted -= g.bytes
	a.serveLocked()
	a.mu.Unlock()
}

// serveLocked grants as many queue-head waiters as now fit. Only the head
// is ever considered (strict FIFO); abandoned waiters are skipped.
func (a *Admission) serveLocked() {
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if w.abandoned {
			a.waiters = a.waiters[1:]
			continue
		}
		if a.granted+w.want > a.budget {
			return
		}
		a.waiters = a.waiters[1:]
		a.granted += w.want
		if a.granted > a.peakGranted {
			a.peakGranted = a.granted
		}
		a.admitted++
		w.ready <- &Grant{a: a, bytes: w.want, gov: NewChildGovernor(a.ledger, w.want)}
	}
}

// compactLocked drops abandoned waiters from the queue front so they cannot
// block serveLocked, then serves whoever is now at the head (the abandoned
// waiter may have been the one holding everyone up).
func (a *Admission) compactLocked() {
	for len(a.waiters) > 0 && a.waiters[0].abandoned {
		a.waiters = a.waiters[1:]
	}
	a.serveLocked()
}
