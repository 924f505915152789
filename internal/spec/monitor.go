package spec

// Monitor consumes a computation one state at a time and reports temporal
// predicate violations online, so long simulations need not retain traces.
// Monitors are non-latching: they report every violating state or
// transition, not just the first, so callers can locate the *last*
// violation of a run — the quantity stabilization measurements need.
// Implementations are not safe for concurrent use.
type Monitor[S any] interface {
	// Observe feeds the next state of the computation. It returns a
	// non-nil violation whenever the property fails at this state or on
	// the transition into it.
	Observe(s S) *Violation
	// Stutter feeds a state identical to the previously observed one —
	// a stuttering step — and returns exactly what Observe of that state
	// would, replaying the verdict from values cached at the last Observe
	// instead of re-evaluating predicates. It must follow at least one
	// Observe.
	Stutter() *Violation
	// Pending reports how many obligations remain open (nonzero only for
	// liveness monitors such as leads-to, where p held but q has not yet).
	Pending() int
	// Name identifies the monitored property in reports.
	Name() string
}

// unlessMonitor checks p unless q online.
type unlessMonitor[S any] struct {
	name     string
	p, q     Predicate[S]
	idx      int
	havePrev bool
	prevPnQ  bool // p ∧ ¬q held at the previous state
}

// NewUnless returns an online monitor for "p unless q".
func NewUnless[S any](name string, p, q Predicate[S]) Monitor[S] {
	return &unlessMonitor[S]{name: name, p: p, q: q}
}

func (m *unlessMonitor[S]) Name() string { return m.name }
func (m *unlessMonitor[S]) Pending() int { return 0 }

// Stutter feeds a repeat of the previous state. It can never fail: if p ∧ ¬q
// held there, p still holds.
//
//gblint:hotpath
func (m *unlessMonitor[S]) Stutter() *Violation {
	m.idx++
	return nil
}

// Observe feeds the next state.
//
//gblint:hotpath
func (m *unlessMonitor[S]) Observe(s S) *Violation {
	idx := m.idx
	m.idx++
	pnq := m.p(s) && !m.q(s)
	bad := m.havePrev && m.prevPnQ && !m.p(s) && !m.q(s)
	m.havePrev = true
	m.prevPnQ = pnq
	if bad {
		return &Violation{Op: "unless", Index: idx - 1,
			Detail: m.name + ": p ∧ ¬q held but next state satisfies ¬p ∧ ¬q"}
	}
	return nil
}

// NewStable returns an online monitor for stable(p).
func NewStable[S any](name string, p Predicate[S]) Monitor[S] {
	return NewUnless(name, p, False[S])
}

// invariantMonitor checks "p is invariant" online. Online it reports every
// state where p fails — a strictly stronger, per-state reading of the
// invariant that lets callers locate the last bad state of a run.
type invariantMonitor[S any] struct {
	name string
	p    Predicate[S]
	idx  int
	ok   bool // p held at the previous state
}

// NewInvariant returns an online monitor reporting every state where p
// fails.
func NewInvariant[S any](name string, p Predicate[S]) Monitor[S] {
	return &invariantMonitor[S]{name: name, p: p}
}

func (m *invariantMonitor[S]) Name() string { return m.name }
func (m *invariantMonitor[S]) Pending() int { return 0 }

// Observe feeds the next state.
//
//gblint:hotpath
func (m *invariantMonitor[S]) Observe(s S) *Violation {
	m.ok = m.p(s)
	return m.Stutter()
}

// Stutter feeds a repeat of the previous state, re-reporting a failing p
// (the monitor is non-latching).
//
//gblint:hotpath
func (m *invariantMonitor[S]) Stutter() *Violation {
	idx := m.idx
	m.idx++
	if !m.ok {
		return &Violation{Op: "invariant", Index: idx, Detail: m.name + ": p does not hold"}
	}
	return nil
}

// leadsToMonitor checks p ↦ q online. A violation can only be detected at
// trace end (liveness), so Observe never fails; callers inspect Pending
// after the run has quiesced, or use Deadline-bounded variants in harnesses.
type leadsToMonitor[S any] struct {
	name string
	p, q Predicate[S]
	// selfNeg marks q ≡ ¬p (the "p is transient" shape), letting Observe
	// evaluate p once per state instead of twice.
	selfNeg    bool
	idx        int
	openSince  int  // index of the earliest unmet p, -1 if none
	open       int  // number of distinct p-positions currently unmet
	discharged int  // obligations met so far
	pv, qv     bool // p and q at the previous state
}

// LeadsToMonitor is an online checker for p ↦ q with obligation accounting.
type LeadsToMonitor[S any] struct{ m leadsToMonitor[S] }

// NewLeadsTo returns an online monitor for p ↦ q.
func NewLeadsTo[S any](name string, p, q Predicate[S]) *LeadsToMonitor[S] {
	return &LeadsToMonitor[S]{m: leadsToMonitor[S]{name: name, p: p, q: q, openSince: -1}}
}

// NewLeadsToNot returns an online monitor for p ↦ ¬p ("p is transient"),
// equivalent to NewLeadsTo(name, p, Not(p)) but evaluating p once per
// state — the shape of CS Spec and the Reply Spec discharge obligations.
func NewLeadsToNot[S any](name string, p Predicate[S]) *LeadsToMonitor[S] {
	return &LeadsToMonitor[S]{m: leadsToMonitor[S]{name: name, p: p, selfNeg: true, openSince: -1}}
}

// Name identifies the property.
func (l *LeadsToMonitor[S]) Name() string { return l.m.name }

// Pending returns the number of open (unmet) obligations.
func (l *LeadsToMonitor[S]) Pending() int { return l.m.open }

// Discharged returns the number of obligations met so far.
func (l *LeadsToMonitor[S]) Discharged() int { return l.m.discharged }

// OpenSince returns the index of the earliest open obligation, or -1.
func (l *LeadsToMonitor[S]) OpenSince() int { return l.m.openSince }

// Observe feeds the next state. It never returns a violation (leads-to can
// only fail at infinity); use Finish at end of trace.
//
//gblint:hotpath
func (l *LeadsToMonitor[S]) Observe(s S) *Violation {
	m := &l.m
	m.pv = m.p(s)
	if m.selfNeg {
		m.qv = !m.pv
	} else {
		m.qv = m.q(s)
	}
	return l.Stutter()
}

// Stutter feeds a repeat of the previous state: an obligation still open
// there is counted open again.
//
//gblint:hotpath
func (l *LeadsToMonitor[S]) Stutter() *Violation {
	m := &l.m
	idx := m.idx
	m.idx++
	pv, qv := m.pv, m.qv
	if qv {
		m.discharged += m.open
		m.open = 0
		m.openSince = -1
	}
	if pv && !qv {
		if m.openSince == -1 {
			m.openSince = idx
		}
		m.open++
	}
	return nil
}

// Finish reports a violation if obligations remain open at trace end.
func (l *LeadsToMonitor[S]) Finish() *Violation {
	if l.m.open > 0 {
		return &Violation{Op: "leads-to", Index: l.m.openSince,
			Detail: l.m.name + ": obligation open at end of trace"}
	}
	return nil
}

var _ Monitor[int] = (*LeadsToMonitor[int])(nil)

// Global is the scope of a monitor that may read any part of the state.
const Global = -1

// Suite aggregates monitors and fans states out to all of them.
type Suite[S any] struct {
	monitors   []scoped[S]
	violations []*Violation
}

// scoped is a registered monitor with the one process it reads, or Global.
type scoped[S any] struct {
	m     Monitor[S]
	scope int
}

// NewSuite returns a Suite over the given monitors, all of Global scope.
func NewSuite[S any](ms ...Monitor[S]) *Suite[S] {
	su := &Suite[S]{}
	for _, m := range ms {
		su.Add(m)
	}
	return su
}

// Add registers another monitor of Global scope.
func (su *Suite[S]) Add(m Monitor[S]) { su.AddScoped(Global, m) }

// AddScoped registers a monitor that reads only process scope's part of
// the state (or any part, for Global), so ObserveChanged can give it a
// stuttering step while that part is unchanged.
func (su *Suite[S]) AddScoped(scope int, m Monitor[S]) {
	su.monitors = append(su.monitors, scoped[S]{m, scope})
}

// Observe feeds s to every monitor, collecting violations.
//
//gblint:hotpath
func (su *Suite[S]) Observe(s S) {
	for _, e := range su.monitors {
		su.collect(e.m.Observe(s))
	}
}

// ObserveChanged feeds s, which differs from the previously observed state
// at most in the processes j with changed[j]. Monitors scoped to a changed
// process, and Global ones if any process changed, evaluate s; every other
// monitor takes a stuttering step. Monitors run in registration order, so
// the violation stream is the one Observe(s) would produce. The first
// state of a computation must go through Observe or mark every process
// changed.
//
//gblint:hotpath
func (su *Suite[S]) ObserveChanged(s S, changed []bool) {
	anyChanged := false
	for _, c := range changed {
		anyChanged = anyChanged || c
	}
	for _, e := range su.monitors {
		if (e.scope == Global && anyChanged) || (e.scope != Global && changed[e.scope]) {
			su.collect(e.m.Observe(s))
		} else {
			su.collect(e.m.Stutter())
		}
	}
}

//gblint:hotpath
func (su *Suite[S]) collect(v *Violation) {
	if v != nil {
		su.violations = append(su.violations, v)
	}
}

// Violations returns all violations recorded so far.
func (su *Suite[S]) Violations() []*Violation { return su.violations }

// Pending sums open obligations across monitors.
func (su *Suite[S]) Pending() int {
	total := 0
	for _, e := range su.monitors {
		total += e.m.Pending()
	}
	return total
}
