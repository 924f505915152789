package spec

import (
	"math/rand"
	"strconv"
	"testing"
)

// stutterTrace returns a seeded random trace over 0..7 in which about half
// the steps repeat the previous state.
func stutterTrace(rng *rand.Rand, n int) []int {
	tr := make([]int, n)
	for i := range tr {
		if i > 0 && rng.Intn(2) == 0 {
			tr[i] = tr[i-1]
		} else {
			tr[i] = rng.Intn(8)
		}
	}
	return tr
}

// sameVerdict reports whether two Observe/Stutter results agree on
// everything a caller reads from them.
func sameVerdict(a, b *Violation) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Op == b.Op && a.Index == b.Index && a.Detail == b.Detail
}

// TestStutterEqualsObserve checks, for every generic monitor kind, that a
// stuttering step returns exactly what Observe of the repeated state does
// and leaves the monitor in the same state: same violation Op and Index,
// same Pending, Discharged and OpenSince.
func TestStutterEqualsObserve(t *testing.T) {
	kinds := []struct {
		name string
		mk   func(p, q Predicate[int]) Monitor[int]
	}{
		{"invariant", func(p, _ Predicate[int]) Monitor[int] { return NewInvariant("inv", p) }},
		{"unless", func(p, q Predicate[int]) Monitor[int] { return NewUnless("unl", p, q) }},
		{"leads-to", func(p, q Predicate[int]) Monitor[int] { return NewLeadsTo("lt", p, q) }},
		{"leads-to-not", func(p, _ Predicate[int]) Monitor[int] { return NewLeadsToNot("ltn", p) }},
	}
	rng := rand.New(rand.NewSource(2001))
	for _, k := range kinds {
		for trial := 0; trial < 200; trial++ {
			p, q := ge(rng.Intn(8)), lt(rng.Intn(8))
			if trial%2 == 1 {
				p = eq(rng.Intn(8))
			}
			ref, stut := k.mk(p, q), k.mk(p, q)
			tr := stutterTrace(rng, 40)
			for i, s := range tr {
				want := ref.Observe(s)
				var got *Violation
				if i > 0 && s == tr[i-1] {
					got = stut.Stutter()
				} else {
					got = stut.Observe(s)
				}
				if !sameVerdict(got, want) {
					t.Fatalf("%s trial %d step %d (trace %v): stutter path %v, observe path %v",
						k.name, trial, i, tr, got, want)
				}
				if got, want := stut.Pending(), ref.Pending(); got != want {
					t.Fatalf("%s trial %d step %d: Pending %d, want %d", k.name, trial, i, got, want)
				}
				if lr, ok := ref.(*LeadsToMonitor[int]); ok {
					ls := stut.(*LeadsToMonitor[int])
					if ls.Discharged() != lr.Discharged() || ls.OpenSince() != lr.OpenSince() {
						t.Fatalf("%s trial %d step %d: discharged/openSince %d/%d, want %d/%d",
							k.name, trial, i, ls.Discharged(), ls.OpenSince(), lr.Discharged(), lr.OpenSince())
					}
				}
			}
		}
	}
}

// TestSuiteObserveChanged checks that a suite of process-scoped and global
// monitors produces the same violation stream and obligations whether every
// state is observed in full or only the changed processes re-evaluate.
func TestSuiteObserveChanged(t *testing.T) {
	const n = 3
	build := func() *Suite[[n]int] {
		su := NewSuite[[n]int]()
		su.Add(NewInvariant("sum-small", func(s [n]int) bool { return s[0]+s[1]+s[2] < 15 }))
		for j := 0; j < n; j++ {
			j := j
			at := func(v int) Predicate[[n]int] { return func(s [n]int) bool { return s[j] == v } }
			id := "." + strconv.Itoa(j)
			su.AddScoped(j, NewInvariant("nonzero"+id, func(s [n]int) bool { return s[j] != 0 }))
			su.AddScoped(j, NewUnless("one-unless-two"+id, at(1), at(2)))
			su.AddScoped(j, NewLeadsTo("three-to-four"+id, at(3), at(4)))
			su.AddScoped(j, NewLeadsToNot("five-transient"+id, at(5)))
		}
		return su
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		full, scoped := build(), build()
		var s [n]int
		changed := make([]bool, n)
		for step := 0; step < 60; step++ {
			for j := range s {
				changed[j] = step == 0 || rng.Intn(3) == 0
				if changed[j] && rng.Intn(2) == 0 {
					s[j] = rng.Intn(7) // a changed mark may also cover an unchanged value
				}
			}
			full.Observe(s)
			scoped.ObserveChanged(s, changed)
		}
		fv, sv := full.Violations(), scoped.Violations()
		if len(fv) != len(sv) {
			t.Fatalf("trial %d: %d violations scoped, %d full", trial, len(sv), len(fv))
		}
		for i := range fv {
			if !sameVerdict(sv[i], fv[i]) {
				t.Fatalf("trial %d violation %d: scoped %v, full %v", trial, i, sv[i], fv[i])
			}
		}
		if scoped.Pending() != full.Pending() {
			t.Fatalf("trial %d: Pending %d scoped, %d full", trial, scoped.Pending(), full.Pending())
		}
	}
}
