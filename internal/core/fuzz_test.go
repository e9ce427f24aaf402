package core

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadModel hardens the model parser against corrupt or hostile input:
// it must either return an error or a model that passes Validate and that
// the vote can index — never panic, never return a model Localize cannot
// serve.
func FuzzReadModel(f *testing.F) {
	// Seed with a real model.
	valid := `{
	  "services": ["a", "b"],
	  "metrics": ["m"],
	  "targets": ["a"],
	  "causal_sets": {"m": {"a": ["a", "b"]}},
	  "baseline": {"metrics": ["m"], "services": ["a", "b"],
	    "data": {"m": {"a": [1, 2], "b": [1, 2]}}},
	  "alpha": 0.05
	}`
	f.Add(valid)
	f.Add(`{}`)
	f.Add(`{"services": null}`)
	f.Add(`[1,2,3]`)
	f.Add(strings.Replace(valid, `"a", "b"`, `"a"`, 1))
	f.Add(strings.Replace(valid, `0.05`, `7`, 1))
	f.Add(strings.Replace(valid, `["a", "b"]}}`, `["a", "b", "b"]}}`, 1))
	// One seed per naming rule: a repeated service, metric or target, and
	// a baseline whose universe is not the model's.
	f.Add(strings.Replace(valid, `"services": ["a", "b"],`, `"services": ["a", "b", "a"],`, 1))
	f.Add(strings.Replace(valid, `"metrics": ["m"],`, `"metrics": ["m", "m"],`, 1))
	f.Add(strings.Replace(valid, `"targets": ["a"]`, `"targets": ["a", "a"]`, 1))
	f.Add(strings.Replace(valid, `"metrics": ["m"], "services": ["a", "b"]`, `"metrics": ["m"], "services": ["a", "b", "c"]`, 1))
	f.Add(strings.Replace(valid, `"baseline": {"metrics": ["m"]`, `"baseline": {"metrics": []`, 1))
	f.Fuzz(func(t *testing.T, raw string) {
		model, err := ReadModel(bytes.NewBufferString(raw))
		if err != nil {
			return
		}
		if model == nil {
			t.Fatal("nil model without error")
		}
		if err := model.Validate(); err != nil {
			t.Fatalf("ReadModel returned invalid model: %v", err)
		}
		if _, err := NewCausalIndex(model); err != nil {
			t.Fatalf("ReadModel returned a model the vote cannot index: %v", err)
		}
	})
}
