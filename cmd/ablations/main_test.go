package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

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
		{"-only", "ablation_bogus"},
	} {
		t.Run(strings.Join(bad, " "), func(t *testing.T) {
			dir := t.TempDir()
			out, metrics := filepath.Join(dir, "out"), filepath.Join(dir, "m.json")
			fs := flag.NewFlagSet("ablations", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			args := append([]string{"-out", out, "-server", srv.URL, "-metrics-out", metrics}, bad...)
			if err := run(fs, args); err == nil {
				t.Fatal("accepted an invalid configuration")
			}
			for _, p := range []string{out, metrics} {
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
