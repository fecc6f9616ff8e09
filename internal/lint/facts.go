package lint

import "go/types"

// FactStore records analyzer-published facts about type-checked
// objects, in the x/tools go/analysis spirit: an analyzer publishes a
// fact ("this type's Clone was proven complete") that the self-tests
// proving it really covered the types it gates can query. Keys are
// namespaced by convention as "analyzer.fact"
// ("clonecomplete.complete"). Facts exist for the lifetime of one
// Program — exactly the scope whole-program analyzers and their
// self-tests share.
type FactStore struct {
	m map[types.Object]map[string]any
}

// Set publishes a fact about obj.
func (s *FactStore) Set(obj types.Object, key string, val any) {
	if s.m == nil {
		s.m = make(map[types.Object]map[string]any)
	}
	facts := s.m[obj]
	if facts == nil {
		facts = make(map[string]any)
		s.m[obj] = facts
	}
	facts[key] = val
}

// Get returns the fact value and whether it was published.
func (s *FactStore) Get(obj types.Object, key string) (any, bool) {
	v, ok := s.m[obj][key]
	return v, ok
}

// Bool returns a boolean fact (false when absent or non-bool).
func (s *FactStore) Bool(obj types.Object, key string) bool {
	v, _ := s.Get(obj, key)
	b, _ := v.(bool)
	return b
}

// Facts returns the program's shared fact store.
func (p *Program) Facts() *FactStore {
	if p.facts == nil {
		p.facts = &FactStore{}
	}
	return p.facts
}
