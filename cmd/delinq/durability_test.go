// End-to-end crash-safety tests for the durability layer: the daemon's
// warm restart and the per-flag usage contract of the serve
// validation.
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestCLIServeFlagValidation: every malformed tuning flag is a usage
// error (exit 2), one case per flag so a regression names its flag.
func TestCLIServeFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	cases := []struct {
		name string
		args []string
	}{
		{"req-timeout negative", []string{"serve", "-req-timeout", "-1s"}},
		{"drain-timeout zero", []string{"serve", "-drain-timeout", "0"}},
		{"drain-timeout negative", []string{"serve", "-drain-timeout", "-5s"}},
		{"cache-entries negative", []string{"serve", "-cache-entries", "-1"}},
		{"cache-bytes negative", []string{"serve", "-cache-bytes", "-1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 2 {
				t.Fatalf("%v: %v, want exit 2\n%s", tc.args, err, out)
			}
			if !strings.Contains(string(out), "usage") && !strings.Contains(string(out), "wants") {
				t.Errorf("%v produced no usage diagnostic:\n%s", tc.args, out)
			}
		})
	}
}

// TestCLIServeWarmRestart: a daemon restarted over the same -state-dir
// serves the previous process's cached results byte-identically, with
// the `warm` header verdict distinguishing them from in-process hits.
func TestCLIServeWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	body := fmt.Sprintf(`{"source": %q}`, cliProg)

	post := func(base string) (string, []byte) {
		t.Helper()
		resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("analyze = %d: %s", resp.StatusCode, b)
		}
		return resp.Header.Get("Delinq-Cache"), b
	}

	cmd, base, _ := startServe(t, bin, "-state-dir", dir)
	verdict, cold := post(base)
	if verdict != "miss" {
		t.Fatalf("first request = %q, want miss", verdict)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	cmd2, base2, _ := startServe(t, bin, "-state-dir", dir)
	verdict2, warm := post(base2)
	if verdict2 != "warm" {
		t.Fatalf("post-restart request = %q, want warm", verdict2)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm body diverges from cold:\ncold: %s\nwarm: %s", cold, warm)
	}
	cmd2.Process.Signal(syscall.SIGTERM)
	cmd2.Wait()
}

// TestCLILoadtestWarmBucket: a loadtest rerun over a populated
// -state-dir reports warm hits in its own bucket, giving the
// warm-vs-cold latency comparison a first-class home in the report.
func TestCLILoadtestWarmBucket(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	state := filepath.Join(dir, "state")
	rep := filepath.Join(dir, "rep.json")

	run := func() string {
		t.Helper()
		out, err := exec.Command(bin, "loadtest",
			"-state-dir", state, "-workers", "2", "-duration", "1s",
			"-keys", "2", "-o", rep).CombinedOutput()
		if err != nil {
			t.Fatalf("loadtest: %v\n%s", err, out)
		}
		blob, err := os.ReadFile(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}

	run() // cold: populates the state dir
	warm := run()
	if !strings.Contains(warm, `"warm"`) {
		t.Errorf("warm rerun reported no warm bucket:\n%s", warm)
	}

	// An incompatible flag pairing is a usage error.
	args := []string{"loadtest", "-state-dir", state, "-addr", "http://127.0.0.1:1"}
	err := exec.Command(bin, args...).Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("%v: %v, want exit 2", args, err)
	}
}
