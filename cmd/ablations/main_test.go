// Package ablations holds no program: the ablation studies are written by
// reproduce with -only 'ablation_*' (make ablations). Its test checks that
// invocation end to end through the built reproduce binary.
package ablations

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

func TestInvalidConfigTouchesNothing(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "reproduce")
	if out, err := exec.Command("go", "build", "-o", bin, "mgpucompress/cmd/reproduce").CombinedOutput(); err != nil {
		t.Fatalf("building reproduce: %v\n%s", err, out)
	}
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
			args := append([]string{"-only", "ablation_*", "-out", out, "-server", srv.URL, "-metrics-out", metrics}, bad...)
			cmd := exec.Command(bin, args...)
			cmd.Dir = dir
			msg, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("want a rejection with exit status 1, got %v\n%s", err, msg)
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
