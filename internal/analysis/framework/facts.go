package framework

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
)

// FactStore shares analyzer-produced summaries across the packages of one
// driver run. Facts are keyed by (analyzer, object key) where the object key
// is the stable cross-package identity produced by FactKey — NOT the
// types.Object pointer, because a package sees its dependencies through gc
// export data while the driver analyzed them from source, so the two views
// never share object identity.
//
// Fact values are stored as JSON: a lookup decodes into the caller's own
// value, so no analyzer can alias, or mutate, a fact another pass exported.
type FactStore struct {
	m map[factID]json.RawMessage
}

type factID struct {
	Analyzer string
	Key      string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: map[factID]json.RawMessage{}}
}

// FactKey is the stable cross-package identity of a package-level object:
// the qualified function name for functions and methods (e.g.
// "(*repro/internal/core.Txn).AddDep", "repro/internal/core.GetTxn"), and
// package-path-qualified names otherwise. Objects without a package (error
// methods, builtins) have no key.
func FactKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func (s *FactStore) export(analyzer, key string, v any) error {
	if key == "" {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding fact %s/%s: %w", analyzer, key, err)
	}
	s.m[factID{analyzer, key}] = raw
	return nil
}

// Lookup decodes the fact stored for (analyzer, key) into out, reporting
// whether one existed. This is the driver-side accessor; analyzers use the
// Pass methods.
func (s *FactStore) Lookup(analyzer, key string, out any) bool {
	raw, ok := s.m[factID{analyzer, key}]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// Keys returns the sorted object keys holding facts for analyzer.
func (s *FactStore) Keys(analyzer string) []string {
	var out []string
	for id := range s.m {
		if id.Analyzer == analyzer {
			out = append(out, id.Key)
		}
	}
	sort.Strings(out)
	return out
}

// ExportObjectFact attaches a fact to obj for this pass's analyzer. The
// value must be JSON-marshalable; it becomes visible to later passes of the
// same analyzer through ImportObjectFact.
func (p *Pass) ExportObjectFact(obj types.Object, fact any) {
	if p.facts == nil {
		return
	}
	if err := p.facts.export(p.Analyzer.Name, FactKey(obj), fact); err != nil {
		p.factErr = err
	}
}

// ImportObjectFact loads the fact attached to obj by this analyzer in an
// earlier (dependency) pass, reporting whether one existed.
func (p *Pass) ImportObjectFact(obj types.Object, out any) bool {
	if p.facts == nil {
		return false
	}
	return p.facts.Lookup(p.Analyzer.Name, FactKey(obj), out)
}
