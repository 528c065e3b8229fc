package rules

import (
	"sort"

	"repro/internal/cq"
	"repro/internal/relalg"
)

// PartTuples is the result set of one body part: tuples over the named
// columns.
type PartTuples struct {
	Cols   []string
	Tuples []relalg.Tuple
}

// JoinParts joins per-source body-part result sets into bindings over the
// rule's export variables (in ExportVars order), applying cross-part
// built-ins. A missing or empty part yields an empty result. The output is
// deduplicated and canonically ordered.
func JoinParts(r Rule, parts map[string]PartTuples) []relalg.Tuple {
	bindings := []cq.Binding{{}}
	for _, src := range r.SourceNodes() {
		pr, ok := parts[src]
		if !ok || len(pr.Tuples) == 0 {
			return nil
		}
		bindings = joinOne(bindings, pr)
		if len(bindings) == 0 {
			return nil
		}
	}
	for _, b := range r.Body.Builtins {
		if builtinLocalToOnePart(r, b) {
			continue // the source already applied it
		}
		kept := bindings[:0]
		for _, bind := range bindings {
			holds, ok := b.Eval(bind)
			if ok && holds {
				kept = append(kept, bind)
			}
		}
		bindings = kept
	}
	exportVars := r.ExportVars()
	var seen relalg.TupleSet
	var out []relalg.Tuple
	for _, bind := range bindings {
		t, err := bind.Project(exportVars)
		if err != nil {
			continue // defensive: part columns missing an export variable
		}
		if seen.Add(t) {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// joinOne hash-free nested-loop joins the bindings with one part on shared
// columns (part result sets are small: they are already projections).
func joinOne(bindings []cq.Binding, pr PartTuples) []cq.Binding {
	if len(bindings) == 1 && len(bindings[0]) == 0 {
		out := make([]cq.Binding, 0, len(pr.Tuples))
		for _, t := range pr.Tuples {
			b := cq.Binding{}
			for i, c := range pr.Cols {
				if i < len(t) {
					b[c] = t[i]
				}
			}
			out = append(out, b)
		}
		return out
	}
	var out []cq.Binding
	for _, b := range bindings {
		for _, t := range pr.Tuples {
			nb := b.Clone()
			ok := true
			for i, c := range pr.Cols {
				if i >= len(t) {
					ok = false
					break
				}
				if v, bound := nb[c]; bound {
					if !v.Equal(t[i]) {
						ok = false
						break
					}
					continue
				}
				nb[c] = t[i]
			}
			if ok {
				out = append(out, nb)
			}
		}
	}
	return out
}

// builtinLocalToOnePart reports whether all the builtin's variables are
// bound by a single body part, in which case the part's evaluation already
// applied it.
func builtinLocalToOnePart(r Rule, b cq.Builtin) bool {
	for _, src := range r.SourceNodes() {
		vars := r.Body.Restrict(src).AtomVars()
		all := true
		for _, t := range []cq.Term{b.L, b.R} {
			if t.IsVar && !vars[t.Var] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// EvaluateBody evaluates the whole rule body against per-node sources (used
// by the centralised baseline, which holds all databases in one place) and
// returns bindings over ExportVars. Domain maps, when given, translate each
// part's tuples from the source node's identifiers to the head node's before
// the join — the same rewriting a peer applies to incoming Answer payloads.
func EvaluateBody(r Rule, src func(node string) cq.Source, maps MapSet) ([]relalg.Tuple, error) {
	parts := map[string]PartTuples{}
	for _, node := range r.SourceNodes() {
		part, cols := r.BodyPart(node)
		s := src(node)
		if s == nil {
			return nil, nil
		}
		tuples, err := cq.Eval(s, part, cols)
		if err != nil {
			return nil, err
		}
		if dm := maps.For(node, r.HeadNode); dm != nil {
			translated := make([]relalg.Tuple, len(tuples))
			for i, t := range tuples {
				translated[i] = dm.TranslateTuple(t)
			}
			tuples = translated
		}
		parts[node] = PartTuples{Cols: cols, Tuples: tuples}
	}
	return JoinParts(r, parts), nil
}
