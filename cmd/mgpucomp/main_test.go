package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestInvalidConfigTouchesNothing(t *testing.T) {
	for _, bad := range [][]string{
		{"-gpus", "1"},
		{"-topology", "bogus"},
		{"-topology", "mesh", "-gpus", "6"},
		{"-scale", "-1"},
		{"-cus", "-1"},
		{"-fault-profile", "nonsense"},
		{"-policy", "bogus"},
		{"-lambda", "-1"},
		{"-lambda", "NaN"},
		{"-lambda", "Inf"},
		{"-jobs", "2"}, // single-run command: no sweep flags
	} {
		t.Run(strings.Join(bad, " "), func(t *testing.T) {
			metrics := filepath.Join(t.TempDir(), "m.json")
			fs := flag.NewFlagSet("mgpucomp", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			if err := run(fs, append([]string{"-metrics-out", metrics}, bad...)); err == nil {
				t.Fatal("accepted an invalid configuration")
			}
			if _, err := os.Stat(metrics); !os.IsNotExist(err) {
				t.Errorf("%s exists after a rejected configuration", metrics)
			}
		})
	}
}

func TestRunWritesMetrics(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	fs := flag.NewFlagSet("mgpucomp", flag.ContinueOnError)
	if err := run(fs, []string{"-bench", "mt", "-policy", "adaptive-global", "-scale", "1", "-cus", "2",
		"-metrics-out", metrics}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(metrics); err != nil || st.Size() == 0 {
		t.Errorf("metrics file: %v", err)
	}
}
