package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/faultpoint"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// The suite re-execs this test binary as a real server process so a crash
// failpoint kills an actual zeroedd, not a goroutine; the parent drives it
// over HTTP, waits for faultpoint.CrashExitCode, restarts, and checks
// recovery.
const (
	envServer   = "ZEROED_CHAOS_SERVER"
	envDir      = "ZEROED_CHAOS_DIR"
	envAddrFile = "ZEROED_CHAOS_ADDR_FILE"
)

// TestChaosServerProcess is the re-exec target, not a test: with the env
// guard set it becomes the server under chaos and never returns (it is
// crashed or killed by the parent test).
func TestChaosServerProcess(t *testing.T) {
	if os.Getenv(envServer) != "1" {
		t.Skip("re-exec target for the chaos suite")
	}
	srv := serve.New(serve.Config{
		Workers:         2,
		ModelDir:        os.Getenv(envDir),
		MaxRows:         60, // tight refit accumulator: drift refits stay fast
		StreamChunkRows: 16,
		DriftThreshold:  0.15,
		DriftMinRows:    50,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos server: listen: %v\n", err)
		os.Exit(3)
	}
	if err := os.WriteFile(os.Getenv(envAddrFile), []byte("http://"+ln.Addr().String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "chaos server: addr file: %v\n", err)
		os.Exit(3)
	}
	_ = http.Serve(ln, srv.Handler())
}

// proc is one server subprocess under the parent's control.
type proc struct {
	t    *testing.T
	cmd  *exec.Cmd
	base string
	out  *bytes.Buffer
}

// startServer launches the re-exec server over dir with the given
// ZEROED_FAILPOINTS spec ("" = no faults) and waits until it serves.
func startServer(t *testing.T, dir, faults string) *proc {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run=TestChaosServerProcess$")
	cmd.Env = append(os.Environ(),
		envServer+"=1",
		envDir+"="+dir,
		envAddrFile+"="+addrFile,
		faultpoint.EnvVar+"="+faults,
	)
	out := &bytes.Buffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting chaos server: %v", err)
	}
	p := &proc{t: t, cmd: cmd, out: out}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			p.base = string(raw)
			return p
		}
		if cmd.ProcessState != nil || time.Now().After(deadline) {
			t.Fatalf("chaos server never came up:\n%s", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitExit blocks until the subprocess dies and asserts its exit code —
// faultpoint.CrashExitCode for an injected crash, -1 for SIGKILL.
func (p *proc) waitExit(want int) {
	p.t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		_ = p.cmd.Process.Kill()
		p.t.Fatalf("chaos server never exited:\n%s", p.out.String())
	}
	if code := p.cmd.ProcessState.ExitCode(); code != want {
		p.t.Fatalf("chaos server exit code %d, want %d\n%s", code, want, p.out.String())
	}
}

// kill9 delivers an uncatchable SIGKILL — the OS-level crash no defer or
// shutdown hook can soften — and reaps the process.
func (p *proc) kill9() {
	p.t.Helper()
	_ = p.cmd.Process.Signal(syscall.SIGKILL)
	p.waitExit(-1)
}

// benchCSV renders the standard small chaos dataset.
func benchCSV(t *testing.T, ds *table.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fitModel posts a fit and decodes the created model's status.
func fitModel(t *testing.T, base string, csv []byte, query string) serve.ModelStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/models"+query, "text/csv", bytes.NewReader(csv))
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		t.Fatalf("fit: status %d: %s", resp.StatusCode, raw.String())
	}
	var st serve.ModelStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// score posts a score request and decodes the result.
func score(t *testing.T, base, id string, csv []byte) serve.ScoreResult {
	t.Helper()
	resp, err := http.Post(base+"/v1/models/"+id+"/score", "text/csv", bytes.NewReader(csv))
	if err != nil {
		t.Fatalf("score: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var raw bytes.Buffer
		raw.ReadFrom(resp.Body)
		t.Fatalf("score: status %d: %s", resp.StatusCode, raw.String())
	}
	var sr serve.ScoreResult
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// assertSameBits compares two score results cell by cell: verdicts and
// float64 bit patterns.
func assertSameBits(t *testing.T, want, got serve.ScoreResult) {
	t.Helper()
	if len(got.Pred) != len(want.Pred) {
		t.Fatalf("scored %d rows, want %d", len(got.Pred), len(want.Pred))
	}
	for i := range want.Pred {
		for j := range want.Pred[i] {
			if got.Pred[i][j] != want.Pred[i][j] {
				t.Fatalf("verdict differs at (%d,%d) after recovery", i, j)
			}
			if math.Float64bits(got.Scores[i][j]) != math.Float64bits(want.Scores[i][j]) {
				t.Fatalf("score bits differ at (%d,%d) after recovery", i, j)
			}
		}
	}
}

// listModels fetches the registry listing.
func listModels(t *testing.T, base string) []serve.ModelStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Models []serve.ModelStatus `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	return listing.Models
}

// metricsText fetches /metrics.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// dirSuffixed lists file names under dir with the given suffix.
func dirSuffixed(t *testing.T, dir, suffix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			out = append(out, e.Name())
		}
	}
	return out
}

// crashSweepSites enumerates every disk-write failpoint the sweep crashes
// at, with the deterministic post-restart expectation for the fit that was
// in flight: committed means its artifact survives the crash (the crash
// landed after the atomic rename), uncommitted means the artifact must be
// gone without a trace.
var crashSweepSites = []struct {
	name      string
	committed bool
}{
	{"serve.fit.persist", false},
	{"model.save.after_write", false},
	{"model.save.before_rename", false},
	{"model.save.after_rename", true},
	{"serve.manifest.write", true},
}

// TestCrashSweepRecovery is the core chaos loop: for every disk-write
// failpoint, fit a baseline model, kill -9 the server, restart with the
// site armed to crash, drive a second fit into the crash, restart clean,
// and require the baseline to score bit-identically — with the in-flight
// fit either fully committed or fully absent, never torn.
func TestCrashSweepRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server subprocesses and fits models")
	}
	csv := benchCSV(t, datasets.Hospital(60, 3).Dirty)
	for _, site := range crashSweepSites {
		site := site
		t.Run(site.name, func(t *testing.T) {
			dir := t.TempDir()

			// Phase A: durable baseline, then an uncatchable kill.
			p1 := startServer(t, dir, "")
			st := fitModel(t, p1.base, csv, "?seed=7")
			baseline := score(t, p1.base, st.ID, csv)
			p1.kill9()

			// Phase B: the armed site crashes the server mid-operation.
			p2 := startServer(t, dir, site.name+":crash")
			resp, err := http.Post(p2.base+"/v1/models?seed=11", "text/csv", bytes.NewReader(csv))
			if err == nil {
				// The crash may land after the response headers; either
				// way the process must die with the crash exit code.
				resp.Body.Close()
			}
			p2.waitExit(faultpoint.CrashExitCode)

			// Phase C: clean restart recovers the baseline bit-for-bit.
			p3 := startServer(t, dir, "")
			assertSameBits(t, baseline, score(t, p3.base, st.ID, csv))
			models := listModels(t, p3.base)
			want := 1
			if site.committed {
				want = 2
			}
			if len(models) != want {
				t.Fatalf("recovered %d models after %s crash, want %d: %+v",
					len(models), site.name, want, models)
			}
			if tmp := dirSuffixed(t, dir, model.TmpSuffix); len(tmp) != 0 {
				t.Fatalf("stranded temp files after recovery: %v", tmp)
			}
			// No artifact on disk may be torn: the atomic protocol leaves
			// committed-or-absent files only.
			if text := metricsText(t, p3.base); !strings.Contains(text, "zeroedd_model_load_failures_total 0") {
				t.Fatalf("recovery hit load failures after %s crash:\n%s", site.name, text)
			}
			p3.kill9()
		})
	}
}

// TestCrashDuringRefitKeepsLastGood: a crash in the background refit's
// persist path takes the whole process down mid-swap; restart serves the
// pre-refit version bit-identically.
func TestCrashDuringRefitKeepsLastGood(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server subprocesses and fits models")
	}
	bench := datasets.Hospital(60, 3)
	csv := benchCSV(t, bench.Dirty)
	dir := t.TempDir()

	p1 := startServer(t, dir, "")
	st := fitModel(t, p1.base, csv, "?seed=7")
	baseline := score(t, p1.base, st.ID, csv)
	p1.kill9()

	// All-novel rows trip the drift gauge; the triggered refit crashes at
	// its persist failpoint.
	p2 := startServer(t, dir, "serve.refit.persist:crash")
	var novel bytes.Buffer
	novel.WriteString(strings.Join(st.Attrs, ",") + "\n")
	for i := 0; i < 60; i++ {
		row := make([]string, len(st.Attrs))
		for j := range row {
			row[j] = fmt.Sprintf("novel-%d-%d", j, i%17)
		}
		novel.WriteString(strings.Join(row, ",") + "\n")
	}
	resp, err := http.Post(p2.base+"/v1/models/"+st.ID+"/stream", "text/csv", bytes.NewReader(novel.Bytes()))
	if err == nil {
		// Drain until the process dies under us; the refit crash races the
		// end of the stream response.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	p2.waitExit(faultpoint.CrashExitCode)

	p3 := startServer(t, dir, "")
	models := listModels(t, p3.base)
	if len(models) != 1 || models[0].Version != 1 {
		t.Fatalf("want the v1 baseline alone after refit crash, got %+v", models)
	}
	assertSameBits(t, baseline, score(t, p3.base, st.ID, csv))
	p3.kill9()
}

// TestKillNineMidFit: SIGKILL with a fit in flight — no failpoint, pure
// OS-level murder — must leave the directory recoverable: the committed
// baseline intact, nothing torn, temp debris swept.
func TestKillNineMidFit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server subprocesses and fits models")
	}
	dir := t.TempDir()
	small := benchCSV(t, datasets.Hospital(60, 3).Dirty)
	big := benchCSV(t, datasets.Hospital(250, 5).Dirty)

	p1 := startServer(t, dir, "")
	st := fitModel(t, p1.base, small, "?seed=7")
	baseline := score(t, p1.base, st.ID, small)

	// Launch a larger fit and SIGKILL the server while it runs.
	go func() {
		resp, err := http.Post(p1.base+"/v1/models?seed=11", "text/csv", bytes.NewReader(big))
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(300 * time.Millisecond)
	p1.kill9()

	p2 := startServer(t, dir, "")
	assertSameBits(t, baseline, score(t, p2.base, st.ID, small))
	if tmp := dirSuffixed(t, dir, model.TmpSuffix); len(tmp) != 0 {
		t.Fatalf("stranded temp files after kill -9: %v", tmp)
	}
	if text := metricsText(t, p2.base); !strings.Contains(text, "zeroedd_model_load_failures_total 0") {
		t.Fatalf("kill -9 left a torn artifact:\n%s", text)
	}
	p2.kill9()
}

// TestFailpointCoverage fails the suite if any registered failpoint is
// neither crash-swept by the subprocess tests above nor armed and hit by
// the in-process exercisers below: a new failpoint must buy its chaos
// coverage before it ships.
func TestFailpointCoverage(t *testing.T) {
	crashSwept := map[string]bool{"serve.refit.persist": true} // TestCrashDuringRefitKeepsLastGood
	for _, site := range crashSweepSites {
		crashSwept[site.name] = true
	}
	inProcess := map[string]func(*testing.T){
		"model.load.decode":   exerciseLoadDecode,
		"llm.judge.transient": exerciseJudgeTransient,
	}
	for _, name := range faultpoint.List() {
		if !crashSwept[name] && inProcess[name] == nil {
			t.Errorf("failpoint %q is not exercised by the chaos suite: add it to the crash sweep or an in-process exerciser", name)
		}
	}
	if testing.Short() {
		t.Skip("in-process exercisers fit models")
	}
	for name, fn := range inProcess {
		t.Run(name, fn)
	}
}

// exerciseLoadDecode arms the decode failpoint and proves a poisoned load
// surfaces as a corruption, not a plain error.
func exerciseLoadDecode(t *testing.T) {
	m, err := zeroed.New(zeroed.Config{LabelRate: 0.1, CorrK: 2, Seed: 1, Workers: 2}).
		FitOn(context.Background(), nil, datasets.Hospital(30, 2).Dirty)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.zedm")
	if err := model.SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Arm("model.load.decode", "error"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultpoint.Reset)
	before := faultpoint.Hits("model.load.decode")
	if _, err := model.LoadFile(path); !model.IsCorrupt(err) {
		t.Fatalf("poisoned load returned %v, want a corruption", err)
	}
	if faultpoint.Hits("model.load.decode") != before+1 {
		t.Fatal("decode failpoint never fired")
	}
	faultpoint.Reset()
	if _, err := model.LoadFile(path); err != nil {
		t.Fatalf("disarmed load failed: %v", err)
	}
}

// exerciseJudgeTransient arms a two-failure budget on the LLM judge and
// proves a fit rides through it via retries.
func exerciseJudgeTransient(t *testing.T) {
	if err := faultpoint.Arm("llm.judge.transient", "error(2)"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultpoint.Reset)
	before := faultpoint.Hits("llm.judge.transient")
	_, err := zeroed.New(zeroed.Config{LabelRate: 0.1, CorrK: 2, Seed: 1, Workers: 2}).
		FitOn(context.Background(), nil, datasets.Hospital(30, 2).Dirty)
	if err != nil {
		t.Fatalf("fit should survive transient judge faults: %v", err)
	}
	if got := faultpoint.Hits("llm.judge.transient"); got != before+2 {
		t.Fatalf("judge failpoint hit %d times, want 2", got-before)
	}
}
