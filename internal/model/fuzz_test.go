package model

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"twolevel/internal/core"
	"twolevel/internal/sweep"
)

// FuzzLoadProfile runs the twolevel-rdh/1 decoder over arbitrary bytes,
// seeded with a real 20k-reference profile and the corrupt documents
// TestLoadProfileRejectsCorrupt uses, the wrapped-sum ones included.
// Loading must never panic; an accepted profile must validate and
// round-trip through WriteJSON and LoadProfile unchanged; and Predict
// must not panic on it, under either two-level policy.
func FuzzLoadProfile(f *testing.F) {
	p := collect(f, "gcc1", 20000)
	clean, err := json.Marshal(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	for _, doc := range corruptProfiles(f, p) {
		f.Add([]byte(doc))
	}
	shape := sweep.Options{L1Sizes: []int64{8 << 10}, L2Sizes: []int64{0, 64 << 10}}
	cfgs := sweep.Configs(shape)
	shape.Policy = core.Exclusive
	cfgs = append(cfgs, sweep.Configs(shape)...)

	f.Fuzz(func(t *testing.T, doc []byte) {
		p, err := LoadProfile(bytes.NewReader(doc))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted profile does not validate: %v", err)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		back, err := LoadProfile(&buf)
		if err != nil {
			t.Fatalf("reloading a written profile: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatal("profile changed across WriteJSON and LoadProfile")
		}
		for _, cfg := range cfgs {
			_, _ = Predict(p, cfg, sweep.Options{}) // only a panic fails
		}
	})
}
