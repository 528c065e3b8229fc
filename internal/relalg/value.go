// Package relalg provides the relational substrate of the P2P database
// network: typed values (constants and labelled nulls), tuples, schemas and
// relations with duplicate elimination, append logs for delta extraction, and
// tuple-level homomorphism/subsumption checks used by the chase-style local
// update step.
//
// Tuples have two identities. Tuple.Key is the canonical, injective byte
// encoding: it is stable across processes and is what Skolem null labels,
// WAL records and wire payloads are built from. Tuple.Hash is a 64-bit
// process-local identity, seeded per process via hash/maphash, used by the
// in-memory dedup sets and indexes (TupleSet, Relation) so the hot paths
// never build key strings. Hashes are never persisted, sent or used in
// labels, and a hash hit is always confirmed with Tuple.Equal, so a
// collision costs one comparison, never a wrong answer.
package relalg

import (
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"strconv"
	"strings"
)

// Kind discriminates the runtime type of a Value.
type Kind uint8

const (
	// KindString is a string constant.
	KindString Kind = iota
	// KindInt is a 64-bit integer constant.
	KindInt
	// KindNull is a labelled null (fresh value invented for an existential
	// head variable, as in data exchange). Nulls compare by label.
	KindNull
)

// Value is a single attribute value: a shared constant (string or int, the
// paper's URI assumption) or a labelled null. The zero Value is the empty
// string constant.
type Value struct {
	kind Kind
	str  string // string constant or null label
	num  int64  // int constant
}

// String returns a display rendering: bare text for string constants,
// decimal for ints, and "⊥label" for nulls. Long Skolem labels are shortened
// to a stable digest for readability; Quoted keeps the full label, and
// identity always uses the full label.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindNull:
		if len(v.str) > 24 {
			h := fnv.New32a()
			_, _ = h.Write([]byte(v.str))
			return fmt.Sprintf("⊥%s…%08x", v.str[:strings.IndexByte(v.str+"|", '|')], h.Sum32())
		}
		return "⊥" + v.str
	default:
		return v.str
	}
}

// Quoted renders the value in surface syntax: single-quoted strings with
// internal quotes doubled, bare integers, and ⊥-prefixed null labels.
func (v Value) Quoted() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.num, 10)
	case KindNull:
		return "⊥" + v.str
	default:
		return "'" + strings.ReplaceAll(v.str, "'", "''") + "'"
	}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is a labelled null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsConst reports whether v is a constant (string or int).
func (v Value) IsConst() bool { return v.kind != KindNull }

// Str returns the string payload (string constant text or null label).
func (v Value) Str() string { return v.str }

// Int returns the integer payload; zero unless KindInt.
func (v Value) Int() int64 { return v.num }

// NullLabel returns the label of a null value, or "" for constants.
func (v Value) NullLabel() string {
	if v.kind == KindNull {
		return v.str
	}
	return ""
}

// S builds a string-constant Value.
func S(s string) Value { return Value{kind: KindString, str: s} }

// I builds an integer-constant Value.
func I(n int64) Value { return Value{kind: KindInt, num: n} }

// Null builds a labelled null with the given label.
func Null(label string) Value { return Value{kind: KindNull, str: label} }

// Equal reports exact equality (same kind and payload). Two nulls are equal
// iff their labels are equal.
func (v Value) Equal(w Value) bool { return v == w }

// Compare orders values deterministically: by kind (string < int < null),
// then payload. Integers compare numerically, strings and null labels
// lexicographically. Used for canonical rendering and sorted output, not for
// semantic built-ins (see CompareAs).
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		return int(v.kind) - int(w.kind)
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.num < w.num:
			return -1
		case v.num > w.num:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.str, w.str)
	}
}

// CompareAs performs the semantic comparison used by built-in predicates.
// Integers compare numerically; a string that parses as an integer compares
// numerically with an int; otherwise string comparison of renderings is used.
// Comparisons involving nulls report ok=false (unknown) except equality of
// identical nulls.
func CompareAs(v, w Value) (cmp int, ok bool) {
	if v.kind == KindNull || w.kind == KindNull {
		if v == w {
			return 0, true
		}
		return 0, false
	}
	vi, vIsInt := asInt(v)
	wi, wIsInt := asInt(w)
	if vIsInt && wIsInt {
		switch {
		case vi < wi:
			return -1, true
		case vi > wi:
			return 1, true
		}
		return 0, true
	}
	return strings.Compare(v.String(), w.String()), true
}

func asInt(v Value) (int64, bool) {
	if v.kind == KindInt {
		return v.num, true
	}
	if v.kind == KindString {
		if n, err := strconv.ParseInt(v.str, 10, 64); err == nil {
			return n, true
		}
	}
	return 0, false
}

// hashSeed seeds every Value/Tuple hash of this process. It is drawn fresh
// per process, so hashes must never leave it (see the package doc).
var hashSeed = maphash.MakeSeed()

// Per-kind salts keep a string constant, a null with the same label and an
// int apart before the collision check has to.
var (
	intSalt  = maphash.String(hashSeed, "relalg.int")
	nullSalt = maphash.String(hashSeed, "relalg.null")
)

// mix64 is a 64-bit finaliser (splitmix64): it spreads every input bit over
// the output, so folding component hashes stays well distributed.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash returns the value's process-local 64-bit hash; it does not allocate.
// Equal values hash equally; unequal values may collide, so callers confirm
// hits with Equal. The hash is seeded per process and must never be
// persisted, sent or used in a label — Key is the stable identity.
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindInt:
		return mix64(uint64(v.num) ^ intSalt)
	case KindNull:
		return maphash.String(hashSeed, v.str) ^ nullSalt
	default:
		return maphash.String(hashSeed, v.str)
	}
}

// Key returns a canonical encoding of the value usable as a map key. The
// encoding is injective across kinds and stable across processes.
func (v Value) Key() string {
	switch v.kind {
	case KindInt:
		return "i" + strconv.FormatInt(v.num, 10)
	case KindNull:
		return "n" + v.str
	default:
		return "s" + v.str
	}
}

// ParseValue parses the surface syntax produced by Quoted: single-quoted
// strings, decimal integers, or ⊥label nulls.
func ParseValue(s string) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return Value{}, fmt.Errorf("relalg: empty value literal")
	case strings.HasPrefix(s, "'"):
		if len(s) < 2 || !strings.HasSuffix(s, "'") {
			return Value{}, fmt.Errorf("relalg: unterminated string literal %q", s)
		}
		body := s[1 : len(s)-1]
		return S(strings.ReplaceAll(body, "''", "'")), nil
	case strings.HasPrefix(s, "⊥"):
		return Null(strings.TrimPrefix(s, "⊥")), nil
	default:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("relalg: bad value literal %q", s)
		}
		return I(n), nil
	}
}
