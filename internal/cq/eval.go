package cq

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/relalg"
)

func sval(s string) relalg.Value { return relalg.S(s) }
func ival(n int64) relalg.Value  { return relalg.I(n) }

// Source supplies relation extents to the evaluator. A nil *relalg.Relation
// (or absence) is treated as the empty relation.
type Source interface {
	Rel(name string) *relalg.Relation
}

// MapSource is a trivial Source backed by a map, used by tests and by the
// local join step for multi-source rules.
type MapSource map[string]*relalg.Relation

// Rel implements Source.
func (m MapSource) Rel(name string) *relalg.Relation { return m[name] }

// Eval evaluates the conjunction against src and returns the distinct
// projections of all satisfying bindings onto outVars, in a deterministic
// order. Every variable in outVars must occur in some atom of the
// conjunction (range restriction); otherwise an error is returned.
//
// Node qualifiers on atoms are ignored: the caller is responsible for
// evaluating a conjunction against the right node's database (rules are
// restricted per node before evaluation).
func Eval(src Source, c Conjunction, outVars []string) ([]relalg.Tuple, error) {
	bindings, err := EvalBindings(src, c)
	if err != nil {
		return nil, err
	}
	atomVars := c.AtomVars()
	for _, v := range outVars {
		if !atomVars[v] {
			return nil, fmt.Errorf("cq: output variable %s not range-restricted in %q", v, c.String())
		}
	}
	seen := relalg.NewTupleSet(len(bindings))
	out := make([]relalg.Tuple, 0, len(bindings))
	for _, b := range bindings {
		t, err := b.Project(outVars)
		if err != nil {
			return nil, err
		}
		if seen.Add(t) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, nil
}

// EvalDelta evaluates the conjunction semi-naively: delta holds, per relation
// name, the tuples inserted since the caller's high-water marks, and the
// result contains exactly the distinct projections onto outVars of bindings
// that use at least one delta tuple (the relations behind src must already
// include the delta). Accumulating an initial full Eval with the EvalDelta of
// every subsequent delta therefore reproduces the full Eval of the final
// state, at cost proportional to the deltas instead of the whole database.
//
// The semi-naive expansion runs one pass per atom whose relation has new
// tuples, with that atom seeded from the delta. Passes are ordered
// adaptively — smallest delta first — and use the classic old/new split:
// pass k draws every earlier pass's seed atom from its pre-delta extent
// (full minus that atom's delta). A binding is therefore produced by exactly
// one pass — the first whose seed atom it binds to a delta tuple — instead
// of once per delta atom it touches, and the cheapest seeds run first.
// Seed passes share joined prefixes: the non-seed extents are static for the
// whole call, so bindings that agree on an atom's probed positions — within
// one pass or across passes — expand identically, and the probe-and-unify
// work is done once per distinct prefix and replayed from a cache.
func EvalDelta(src Source, c Conjunction, outVars []string, delta map[string][]relalg.Tuple) ([]relalg.Tuple, error) {
	return evalDelta(src, c, outVars, delta, true, true)
}

// evalDelta is EvalDelta with its optimisations switchable: adaptive=false
// seeds in body order without the old/new split, share=false disables the
// joined-prefix cache — both pre-optimisation behaviours, kept for the
// ablation benchmarks and the equivalence tests.
func evalDelta(src Source, c Conjunction, outVars []string, delta map[string][]relalg.Tuple, adaptive, share bool) ([]relalg.Tuple, error) {
	atomVars := c.AtomVars()
	for _, v := range outVars {
		if !atomVars[v] {
			return nil, fmt.Errorf("cq: output variable %s not range-restricted in %q", v, c.String())
		}
	}
	order := make([]int, 0, len(c.Atoms))
	for i := range c.Atoms {
		if len(delta[c.Atoms[i].Rel]) > 0 {
			order = append(order, i)
		}
	}
	if adaptive {
		sort.SliceStable(order, func(a, b int) bool {
			return len(delta[c.Atoms[order[a]].Rel]) < len(delta[c.Atoms[order[b]].Rel])
		})
	}
	var seen relalg.TupleSet
	var out []relalg.Tuple
	var cache *joinCache
	if share {
		cache = &joinCache{prefixes: map[string]int32{}, m: map[joinKey][]joinEntry{}}
	}
	// exclude maps an already-seeded atom's index to the set of its delta
	// tuples: later passes must not bind that atom to its delta (those
	// combinations were produced when it was the seed).
	var exclude map[int]*relalg.TupleSet
	for _, i := range order {
		seedTuples := delta[c.Atoms[i].Rel]
		bindings, err := evalSeeded(src, c, i, seedTuples, exclude, cache)
		if err != nil {
			return nil, err
		}
		for _, b := range bindings {
			t, err := b.Project(outVars)
			if err != nil {
				return nil, err
			}
			if seen.Add(t) {
				out = append(out, t)
			}
		}
		if adaptive {
			if exclude == nil {
				exclude = map[int]*relalg.TupleSet{}
			}
			set := relalg.NewTupleSet(len(seedTuples))
			for _, t := range seedTuples {
				set.Add(t)
			}
			exclude[i] = set
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out, nil
}

// evalSeeded runs the pipelined join with atom `seed` restricted to the given
// tuples, atoms in exclude restricted to their pre-delta extents, and every
// other atom drawn from its full extent in src.
func evalSeeded(src Source, c Conjunction, seed int, seedTuples []relalg.Tuple, exclude map[int]*relalg.TupleSet, cache *joinCache) ([]Binding, error) {
	atom := c.Atoms[seed]
	bindings := make([]Binding, 0, len(seedTuples))
	for _, t := range seedTuples {
		if nb, ok := match(atom, t, Binding{}); ok {
			bindings = append(bindings, nb)
		}
	}
	if len(bindings) == 0 {
		return nil, nil
	}
	bound := map[string]bool{}
	for _, v := range atom.Vars() {
		bound[v] = true
	}
	remainingAtoms := make([]Atom, 0, len(c.Atoms)-1)
	var excl []*relalg.TupleSet
	for i, a := range c.Atoms {
		if i == seed {
			continue
		}
		remainingAtoms = append(remainingAtoms, a)
		excl = append(excl, exclude[i])
	}
	remainingBuiltins := applyReadyBuiltins(append([]Builtin(nil), c.Builtins...), bound, &bindings)
	return joinRemaining(src, remainingAtoms, excl, remainingBuiltins, bindings, bound, cache)
}

// EvalBindings evaluates the conjunction and returns all satisfying bindings
// over the conjunction's atom variables. The evaluation is a pipelined join:
// atoms are ordered greedily (most already-bound variables first, then
// smallest extent), each step probes the relations' per-position indexes on
// the bound positions, and built-ins fire as soon as their variables are in
// scope.
func EvalBindings(src Source, c Conjunction) ([]Binding, error) {
	if len(c.Atoms) == 0 {
		// A body with no atoms: satisfied by the empty binding iff all
		// constant built-ins hold.
		b := Binding{}
		for _, bl := range c.Builtins {
			holds, ok := bl.Eval(b)
			if !ok || !holds {
				return nil, nil
			}
		}
		return []Binding{b}, nil
	}
	return joinRemaining(src,
		append([]Atom(nil), c.Atoms...),
		nil,
		append([]Builtin(nil), c.Builtins...),
		[]Binding{{}}, map[string]bool{}, nil)
}

// joinRemaining drives the pipelined join over the remaining atoms, starting
// from an existing binding set with the given variables already in scope.
// excl, when non-nil, runs in lockstep with remainingAtoms and restricts an
// atom to its pre-delta extent by skipping probed tuples in the listed sets
// (the semi-naive old/new split).
func joinRemaining(src Source, remainingAtoms []Atom, excl []*relalg.TupleSet, remainingBuiltins []Builtin, bindings []Binding, bound map[string]bool, cache *joinCache) ([]Binding, error) {
	for len(remainingAtoms) > 0 {
		idx := pickNextAtom(src, remainingAtoms, bound)
		atom := remainingAtoms[idx]
		remainingAtoms = append(remainingAtoms[:idx], remainingAtoms[idx+1:]...)
		var skip *relalg.TupleSet
		if excl != nil {
			skip = excl[idx]
			excl = append(excl[:idx], excl[idx+1:]...)
		}

		bindings = expand(src, bindings, atom, skip, bound, cache)
		for _, v := range atom.Vars() {
			bound[v] = true
		}
		remainingBuiltins = applyReadyBuiltins(remainingBuiltins, bound, &bindings)
		if len(bindings) == 0 {
			return nil, nil
		}
	}
	// Any leftover builtin references an unbound variable: reject (the rule
	// validator should have caught this, but user queries reach here too).
	if len(remainingBuiltins) > 0 {
		var names []string
		for _, b := range remainingBuiltins {
			names = append(names, b.String())
		}
		return nil, fmt.Errorf("cq: builtins with unbound variables: %s", strings.Join(names, "; "))
	}
	return bindings, nil
}

// pickNextAtom chooses the next atom to join: maximise the number of bound
// positions (variables already in scope plus constants); break ties by
// smaller relation extent, then by original order.
func pickNextAtom(src Source, atoms []Atom, bound map[string]bool) int {
	best, bestScore, bestSize := 0, -1, -1
	for i, a := range atoms {
		score := 0
		for _, t := range a.Terms {
			if !t.IsVar || bound[t.Var] {
				score++
			}
		}
		size := 0
		if r := src.Rel(a.Rel); r != nil {
			size = r.Len()
		}
		if score > bestScore || (score == bestScore && size < bestSize) {
			best, bestScore, bestSize = i, score, size
		}
	}
	return best
}

// extension is one cached way an atom extends a binding: the atom's unbound
// variables and the values a matching tuple assigns them.
type extension struct {
	vars []string
	vals []relalg.Value
}

// joinCache shares joined prefixes between the seed passes of one EvalDelta
// call. The non-seed extents (full or pre-delta) are static for the whole
// call, so the set of ways an atom extends a binding depends only on the
// atom's pattern, which positions are probed, the old/new exclusion in force
// and the probed values — the binding's join prefix. Bindings agreeing on
// that prefix, within one pass or across passes, replay the cached
// extensions instead of re-probing and re-unifying.
//
// An entry is keyed by the interned id of its per-expand-call prefix plus
// the process-local hash of the probed values; the values themselves are
// stored with the entry and compared on every hit, so a hash collision
// costs a comparison, never a wrong extension.
type joinCache struct {
	prefixes map[string]int32 // interned prefix -> id
	m        map[joinKey][]joinEntry
}

// joinKey locates the cache entries of one join prefix.
type joinKey struct {
	prefix int32
	hash   uint64 // relalg.Tuple(vals).Hash() of the probed values
}

// joinEntry is one cached join prefix: the probed values and their
// extensions.
type joinEntry struct {
	vals []relalg.Value
	exts []extension
}

// prefixID interns the per-expand-call half of the cache key — everything
// except the probed values, which vary per binding. The skip set is keyed by
// identity: each seeded atom's exclusion set is allocated once and reused
// across all later passes.
func (c *joinCache) prefixID(atom Atom, idxPos []int, skip *relalg.TupleSet) int32 {
	var b strings.Builder
	b.WriteString(atom.String())
	b.WriteByte(0)
	for _, p := range idxPos {
		fmt.Fprintf(&b, "%d,", p)
	}
	b.WriteByte(0)
	fmt.Fprintf(&b, "%p", skip)
	k := b.String()
	id, ok := c.prefixes[k]
	if !ok {
		id = int32(len(c.prefixes))
		c.prefixes[k] = id
	}
	return id
}

// get returns the cached extensions of the prefix whose probed values equal
// vals.
func (c *joinCache) get(k joinKey, vals []relalg.Value) ([]extension, bool) {
	for _, e := range c.m[k] {
		if relalg.Tuple(e.vals).Equal(vals) {
			return e.exts, true
		}
	}
	return nil, false
}

// put caches the extensions of one prefix, copying vals (the caller reuses
// its buffer).
func (c *joinCache) put(k joinKey, vals []relalg.Value, exts []extension) {
	c.m[k] = append(c.m[k], joinEntry{vals: append([]relalg.Value(nil), vals...), exts: exts})
}

// expand joins the current binding set with one atom by probing the
// relation's persistent per-position index on the atom's bound positions
// (constants and variables already in scope). Unlike a per-call hash build,
// the probe costs nothing when the binding set is small — the semi-naive
// delta path depends on this to stay O(delta). skip, when non-nil, holds
// the tuples this atom must not bind (its own delta, under the old/new
// split). cache, when non-nil, shares the probe-and-unify work between
// bindings with equal join prefixes (see joinCache).
func expand(src Source, bindings []Binding, atom Atom, skip *relalg.TupleSet, bound map[string]bool, cache *joinCache) []Binding {
	rel := src.Rel(atom.Rel)
	if rel == nil || rel.Len() == 0 {
		return nil
	}
	var idxPos []int
	for i, t := range atom.Terms {
		if !t.IsVar || bound[t.Var] {
			idxPos = append(idxPos, i)
		}
	}
	// The atom's unbound variables in first-occurrence order — the shape of
	// every cached extension.
	var extVars []string
	extSeen := map[string]bool{}
	for _, t := range atom.Terms {
		if t.IsVar && !bound[t.Var] && !extSeen[t.Var] {
			extSeen[t.Var] = true
			extVars = append(extVars, t.Var)
		}
	}

	var prefix int32
	if cache != nil {
		prefix = cache.prefixID(atom, idxPos, skip)
	}
	var out []Binding
	vals := make([]relalg.Value, len(idxPos))
	for _, b := range bindings {
		ok := true
		for i, p := range idxPos {
			t := atom.Terms[p]
			if !t.IsVar {
				vals[i] = t.Val
				continue
			}
			v, has := b[t.Var]
			if !has {
				ok = false
				break
			}
			vals[i] = v
		}
		if !ok {
			continue
		}
		if cache != nil {
			k := joinKey{prefix: prefix, hash: relalg.Tuple(vals).Hash()}
			exts, hit := cache.get(k, vals)
			if !hit {
				exts = probeExtensions(rel, atom, idxPos, vals, skip, extVars)
				cache.put(k, vals, exts)
			}
			for _, e := range exts {
				nb := b.Clone()
				for i, v := range e.vars {
					nb[v] = e.vals[i]
				}
				out = append(out, nb)
			}
			continue
		}
		for _, tuple := range rel.Probe(idxPos, vals) {
			if skip.Has(tuple) {
				continue
			}
			nb, ok := match(atom, tuple, b)
			if ok {
				out = append(out, nb)
			}
		}
	}
	return out
}

// probeExtensions computes the cached extensions for one join prefix: every
// probed position (all constants and bound variables) already matches by
// construction, so the unification only has to place the unbound variables —
// checking internal consistency where one repeats within the atom.
func probeExtensions(rel *relalg.Relation, atom Atom, idxPos []int, vals []relalg.Value, skip *relalg.TupleSet, extVars []string) []extension {
	rep := Binding{}
	for i, p := range idxPos {
		if t := atom.Terms[p]; t.IsVar {
			rep[t.Var] = vals[i]
		}
	}
	var exts []extension
	for _, tuple := range rel.Probe(idxPos, vals) {
		if skip.Has(tuple) {
			continue
		}
		nb, ok := match(atom, tuple, rep)
		if !ok {
			continue
		}
		e := extension{vars: extVars, vals: make([]relalg.Value, len(extVars))}
		for i, v := range extVars {
			e.vals[i] = nb[v]
		}
		exts = append(exts, e)
	}
	return exts
}

// match unifies the atom with a tuple under binding b, returning the extended
// binding. Handles repeated variables within the atom.
func match(atom Atom, tuple relalg.Tuple, b Binding) (Binding, bool) {
	if len(tuple) != len(atom.Terms) {
		return nil, false
	}
	nb := b.Clone()
	for i, t := range atom.Terms {
		if !t.IsVar {
			if !t.Val.Equal(tuple[i]) {
				return nil, false
			}
			continue
		}
		if v, ok := nb[t.Var]; ok {
			if !v.Equal(tuple[i]) {
				return nil, false
			}
			continue
		}
		nb[t.Var] = tuple[i]
	}
	return nb, true
}

// applyReadyBuiltins filters bindings through every builtin whose variables
// are now all bound, returning the still-pending builtins.
func applyReadyBuiltins(builtins []Builtin, bound map[string]bool, bindings *[]Binding) []Builtin {
	var pending []Builtin
	for _, bl := range builtins {
		ready := true
		for _, t := range []Term{bl.L, bl.R} {
			if t.IsVar && !bound[t.Var] {
				ready = false
			}
		}
		if !ready {
			pending = append(pending, bl)
			continue
		}
		kept := (*bindings)[:0]
		for _, b := range *bindings {
			holds, ok := bl.Eval(b)
			if ok && holds {
				kept = append(kept, b)
			}
		}
		*bindings = kept
	}
	return pending
}
