package runner

import (
	"reflect"
	"testing"

	"mgpucompress/internal/sweep"
)

// executionOnly lists the Options fields that may change how a job runs but
// never what it computes, and so stay out of the job fingerprint. Every other
// field must reach it: a field that does not would let two different
// simulations share one sweep-cache, journal or sweepd entry.
var executionOnly = map[string]bool{
	"Trace": true, // measurement-only; applied per sweep after normalization
}

// nonZeroCandidates returns non-zero values of type t. Scalar kinds get
// several values, so a field whose normalization folds one of them onto its
// default (Scale, Link) still shows that it reaches the key; a struct gets
// one candidate per exported field, each with only that field set.
func nonZeroCandidates(t reflect.Type) []reflect.Value {
	var out []reflect.Value
	add := func(set func(v reflect.Value)) {
		v := reflect.New(t).Elem()
		set(v)
		out = append(out, v)
	}
	switch t.Kind() {
	case reflect.Bool:
		add(func(v reflect.Value) { v.SetBool(true) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		for _, n := range []int64{1, 2, 3} {
			add(func(v reflect.Value) { v.SetInt(n) })
		}
	case reflect.Float32, reflect.Float64:
		for _, f := range []float64{0.5, 2} {
			add(func(v reflect.Value) { v.SetFloat(f) })
		}
	case reflect.String:
		add(func(v reflect.Value) { v.SetString("x") })
	case reflect.Slice:
		for _, e := range nonZeroCandidates(t.Elem()) {
			add(func(v reflect.Value) { v.Set(reflect.Append(v, e)) })
		}
	case reflect.Pointer:
		add(func(v reflect.Value) { v.Set(reflect.New(t.Elem())) })
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			for _, fv := range nonZeroCandidates(t.Field(i).Type) {
				add(func(v reflect.Value) { v.Field(i).Set(fv) })
			}
		}
	}
	return out
}

// fieldReaches reports whether some non-zero value of field i of the zero
// struct of type t changes digest. It fails the test when the field's type
// has no candidate generator, so a new kind of field cannot slip through.
func fieldReaches(t *testing.T, typ reflect.Type, i int, digest func(reflect.Value) string) bool {
	t.Helper()
	f := typ.Field(i)
	base := digest(reflect.New(typ).Elem())
	cands := nonZeroCandidates(f.Type)
	if len(cands) == 0 {
		t.Fatalf("%s.%s: no non-zero candidates for type %s", typ.Name(), f.Name, f.Type)
	}
	for _, c := range cands {
		v := reflect.New(typ).Elem()
		v.Field(i).Set(c)
		if digest(v) != base {
			return true
		}
	}
	return false
}

// TestJobKeyFieldsReachCanonical: every JobKey field is part of the job's
// identity, so setting any of them must change the canonical form.
func TestJobKeyFieldsReachCanonical(t *testing.T) {
	typ := reflect.TypeOf(sweep.JobKey{})
	canonical := func(v reflect.Value) string { return v.Interface().(sweep.JobKey).Canonical() }
	for i := 0; i < typ.NumField(); i++ {
		if !fieldReaches(t, typ, i, canonical) {
			t.Errorf("JobKey.%s never changes Canonical()", typ.Field(i).Name)
		}
	}
}

// TestOptionsFieldsReachFingerprint: every runner.Options field must change
// Key(b, o).Fingerprint(), except the execution-only allowlist, whose fields
// must not.
func TestOptionsFieldsReachFingerprint(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	fingerprint := func(v reflect.Value) string { return Key("SC", v.Interface().(Options)).Fingerprint() }
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		reaches := fieldReaches(t, typ, i, fingerprint)
		switch {
		case executionOnly[name] && reaches:
			t.Errorf("Options.%s is allowlisted as execution-only but changes the fingerprint", name)
		case !executionOnly[name] && !reaches:
			t.Errorf("Options.%s never changes the job fingerprint: wire it into Key or allowlist it", name)
		}
	}
	for name := range executionOnly {
		if !seen[name] {
			t.Errorf("allowlisted field %s no longer exists on Options", name)
		}
	}
}
