package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"mgpucompress/internal/runner"
	"mgpucompress/internal/sweep"
)

// reproduce runs the command line in-process, as main does.
func reproduce(args ...string) (sweep.Progress, error) {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, err := parse(fs, args)
	if err != nil {
		return sweep.Progress{}, err
	}
	return c.run()
}

var small = []string{"-scale", "1", "-cus", "2", "-quiet"}

func TestOnlyMatchesFullRun(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full")
	if _, err := reproduce(append(small, "-out", full)...); err != nil {
		t.Fatal(err)
	}
	o := runner.ExpOptions{Scale: 1, CUsPerGPU: 2}
	for _, a := range runner.Artifacts() {
		t.Run(a.Name, func(t *testing.T) {
			out := filepath.Join(dir, a.Name)
			p, err := reproduce(append(small, "-out", out, "-only", a.Name)...)
			if err != nil {
				t.Fatal(err)
			}
			// Rendering must read only what the plan prefetched.
			if want := len(runner.Plan([]runner.Artifact{a}, o)); p.Simulated != want {
				t.Errorf("simulated %d jobs, plan has %d", p.Simulated, want)
			}
			want, err := os.ReadFile(filepath.Join(full, a.Name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(out, a.Name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("-only %s differs from the full run", a.Name)
			}
			files, err := os.ReadDir(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 2 {
				t.Errorf("-only %s wrote %d files, want the artifact and summary.txt", a.Name, len(files))
			}
		})
	}
}

// TestAblationArtifacts checks every ablation artifact on its own, then all
// of them in one run selected by pattern: the combined run must write the
// same bytes.
func TestAblationArtifacts(t *testing.T) {
	dir := t.TempDir()
	o := runner.ExpOptions{Scale: 1, CUsPerGPU: 2}
	var names []string
	for _, a := range runner.Ablations() {
		names = append(names, a.Name)
		t.Run(a.Name, func(t *testing.T) {
			out := filepath.Join(dir, a.Name)
			p, err := reproduce(append(small, "-out", out, "-only", a.Name)...)
			if err != nil {
				t.Fatal(err)
			}
			// Rendering must read only what the plan prefetched.
			if want := len(runner.Plan([]runner.Artifact{a}, o)); p.Simulated != want {
				t.Errorf("simulated %d jobs, plan has %d", p.Simulated, want)
			}
			files, err := os.ReadDir(out)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != 2 || files[0].Name() != a.Name+".txt" || files[1].Name() != "summary.txt" {
				t.Errorf("-only %s wrote %v, want the artifact and summary.txt", a.Name, files)
			}
		})
	}
	all := filepath.Join(dir, "all")
	if _, err := reproduce(append(small, "-out", all, "-only", "ablation_*")...); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		want, err := os.ReadFile(filepath.Join(dir, n, n+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(all, n+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the combined and the single run", n)
		}
	}
	var index strings.Builder
	for _, n := range names {
		fmt.Fprintf(&index, "  %s.txt\n", n)
	}
	if sum, err := os.ReadFile(filepath.Join(all, "summary.txt")); err != nil || !strings.HasSuffix(string(sum), index.String()) {
		t.Errorf("summary.txt = %q (%v), want every study in writing order", sum, err)
	}
}

func TestStaticArtifactsSimulateNothing(t *testing.T) {
	p, err := reproduce(append(small, "-out", t.TempDir(), "-only", "table1,table3,area")...)
	if err != nil {
		t.Fatal(err)
	}
	if p.Simulated != 0 || p.Completed != 0 {
		t.Errorf("static artifacts ran jobs: %s", p)
	}
}

func TestInvalidConfigTouchesNothing(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "unexpected request", http.StatusTeapot)
	}))
	defer srv.Close()
	for _, bad := range [][]string{
		{"-gpus", "1"},
		{"-topology", "bogus"},
		{"-topology", "mesh", "-gpus", "6"},
		{"-scale", "-1"},
		{"-cus", "-1"},
		{"-fault-profile", "nonsense"},
		{"-trace-out", "t.json"}, // together with -server
		{"-only", "table1,bogus"},
		{"-only", "fig5,"},
		{"-only", "ablation_bogus"},
		{"-only", "["},
	} {
		t.Run(strings.Join(bad, " "), func(t *testing.T) {
			dir := t.TempDir()
			out, journal := filepath.Join(dir, "out"), filepath.Join(dir, "journal.jsonl")
			args := append([]string{"-out", out, "-resume", journal, "-server", srv.URL}, bad...)
			if _, err := reproduce(args...); err == nil {
				t.Fatal("accepted an invalid configuration")
			}
			for _, p := range []string{out, journal} {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Errorf("%s exists after a rejected configuration", p)
				}
			}
		})
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("rejected configurations sent %d requests to the server", n)
	}
}

func TestPlanIsReproducePlan(t *testing.T) {
	for _, o := range []runner.ExpOptions{{}, {Scale: 1, CUsPerGPU: 2}} {
		got, want := runner.Plan(runner.Artifacts(), o), runner.ReproducePlan(o)
		if canonical(got) != canonical(want) {
			t.Errorf("Plan(Artifacts(), %+v) differs from ReproducePlan", o)
		}
	}
}

// TestReproducePlanPinned pins the reproduction's job sequence: the
// repository benchmark builds its reproduce workload from it, so a reordered
// or changed plan must be a deliberate change to this digest.
func TestReproducePlanPinned(t *testing.T) {
	for _, tc := range []struct {
		o      runner.ExpOptions
		jobs   int
		digest string
	}{
		{runner.ExpOptions{}, 58, "93266170598acb6cfa0da18dc4df4a96c6aa4e33e03a13dd1359ef6686ad05ce"},
		{runner.ExpOptions{Scale: 1, CUsPerGPU: 2}, 58, "beb7b3521a68924ced4a4894242c13837b772d8998a8f79879d3a7cc8dc04dac"},
	} {
		plan := runner.ReproducePlan(tc.o)
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(canonical(plan))))
		if len(plan) != tc.jobs || got != tc.digest {
			t.Errorf("ReproducePlan(%+v): %d jobs, digest %s; want %d, %s", tc.o, len(plan), got, tc.jobs, tc.digest)
		}
	}
}

func canonical(keys []sweep.JobKey) string {
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k.Canonical())
		b.WriteByte('\n')
	}
	return b.String()
}
