package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/datasets"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/zeroed"
)

// runServe is the serve-warm (cold=false) and serve-cold (cold=true)
// workload. Set-up generates a Hospital table of 2×rows rows, starts a
// fresh zeroedd, registers a model fitted on the first half over the wire,
// loads the committed artifact back and builds the correctness gate; it is
// repeated serveSetupReps times and the last server is kept. The load is a
// closed loop of `clients` clients, one connection each, on 100-row score
// and repair bodies and 400-row stream bodies, drawn from the fitted half
// (warm) or the held-out half (cold).
func runServe(ctx context.Context, o opts, cold bool, tr *tracer) (*outcome, error) {
	out := &outcome{}
	var (
		srv *zeroedd
		st  serve.ModelStatus
		g   *gate
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for rep := 0; rep < serveSetupReps; rep++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			srv = nil
		}
		t0 := time.Now()
		bench := datasets.Hospital(2*o.rows, o.seed)
		fitRows, heldRows := make([]int, o.rows), make([]int, o.rows)
		for i := range fitRows {
			fitRows[i], heldRows[i] = i, o.rows+i
		}
		fitTable := bench.Dirty.SubsetRows(fitRows)
		var csv bytes.Buffer
		if err := fitTable.WriteCSV(&csv); err != nil {
			return nil, err
		}
		var err error
		if srv, err = startZeroedd(o, rep); err != nil {
			return nil, err
		}
		sp := tr.begin("http.fit", -1, 0)
		tf := time.Now()
		reply, code, err := srv.post(fmt.Sprintf("/v1/models?seed=%d&name=hospital", fitConfig.Seed), csv.Bytes())
		out.fitS = append(out.fitS, time.Since(tf).Seconds())
		tr.end(sp, int64(csv.Len()))
		if err != nil {
			return nil, err
		}
		if code != http.StatusCreated {
			return nil, fmt.Errorf("POST /v1/models: %d %s", code, reply)
		}
		if err := json.Unmarshal(reply, &st); err != nil {
			return nil, err
		}
		path := filepath.Join(srv.modelDir, st.ID+".zedm")
		sp = tr.begin("model.decode", -1, 0)
		m, err := model.LoadFile(path)
		tr.end(sp, int64(st.ArtifactBytes))
		if err != nil {
			return nil, err
		}
		src := fitRows
		if cold {
			src = heldRows
		}
		g, err = buildGate(ctx, m, zeroed.NewPool(0), st.ID, bench.Dirty.SubsetRows(src), bench.Clean.SubsetRows(src),
			o.batchRows(), columnValues(fitTable), tr)
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		out.info, out.artifactBytes = m.Info(), st.ArtifactBytes
		out.tokens = m.Info().Usage.Total()
		out.f1 = g.f1()
	}
	out.g = g

	// Re-encode and re-persist the served artifact, so the model layer's
	// write path is costed in this workload too.
	loaded, err := model.LoadFile(filepath.Join(srv.modelDir, st.ID+".zedm"))
	if err != nil {
		return nil, err
	}
	sp := tr.begin("model.encode", -1, 0)
	data, err := model.Encode(loaded)
	tr.end(sp, int64(len(data)))
	if err != nil {
		return nil, err
	}
	sp = tr.begin("model.persist", -1, 0)
	err = model.WriteFileAtomic(filepath.Join(srv.dir, "copy.zedm"), data)
	tr.end(sp, int64(len(data)))
	if err != nil {
		return nil, err
	}

	before, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	ht := &httpTarget{base: srv.base + "/v1/models/" + st.ID, g: g, chunk: o.batchRows()}
	for c := 0; c < o.clients; c++ {
		ht.clients = append(ht.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}})
	}
	out.loop = runLoop(ht, o.clients, [3]int{len(g.batches), len(g.streams), len(g.batches)},
		o.seconds, maxLoop, o.minSamples, tr)
	for _, c := range ht.clients {
		c.CloseIdleConnections()
	}
	after, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	out.server = serverMetrics(before, after)
	out.streamAccumRows = min(int(after["zeroedd_stream_rows_total"]), maxAccumRows)
	out.buildInfo = srv.buildInfo
	if out.rssMB, err = peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	err = srv.stop()
	srv = nil
	return out, err
}

// maxAccumRows caps the rows a model's stream accumulator retains, the
// default of zeroed.StreamConfig. zeroedd takes the cap from -max-rows
// (1,000,000 unless set), which also caps rows per upload; the benchmark
// sets it to this value so that every run, however fast, ends with the
// accumulator at or near the same size, and max_rss_mb with it.
const maxAccumRows = 100_000

// zeroedd is one server process the benchmark started.
type zeroedd struct {
	cmd       *exec.Cmd
	base      string
	dir       string // scratch for this server: model dir, copies
	modelDir  string
	logFile   *os.File
	buildInfo string
	exited    chan struct{}
}

// startZeroedd starts the server on a free loopback port with a fresh model
// directory, its log in a file, and waits until /readyz answers.
func startZeroedd(o opts, rep int) (*zeroedd, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	dir, err := os.MkdirTemp(o.out, "zeroedd-")
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(o.out, fmt.Sprintf("zeroedd-%s-s%d-t%d-r%d.log", o.workload, o.seed, o.trace, rep)))
	if err != nil {
		return nil, err
	}
	s := &zeroedd{base: "http://" + addr, dir: dir, modelDir: filepath.Join(dir, "models"),
		logFile: logFile, exited: make(chan struct{})}
	s.cmd = exec.Command(o.zeroedd, "-addr", addr, "-model-dir", s.modelDir,
		"-max-rows", strconv.Itoa(maxAccumRows))
	s.cmd.Stdout, s.cmd.Stderr = logFile, logFile
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	go func() { _ = s.cmd.Wait(); close(s.exited) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("zeroedd exited during start-up; see %s", logFile.Name())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("zeroedd did not become ready within 30s")
		}
	}
}

// stop terminates the server, waits for it to exit, and removes its files.
func (s *zeroedd) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.logFile.Close()
	return os.RemoveAll(s.dir)
}

func (s *zeroedd) post(path string, body []byte) ([]byte, int, error) {
	resp, err := http.Post(s.base+path, "text/csv", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// metrics scrapes /metrics into series → value (histogram buckets
// skipped) and remembers the build-info series.
func (s *zeroedd) metrics() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if strings.HasPrefix(line, "zeroedd_build_info") {
			s.buildInfo = line[:i]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serverMetrics turns two /metrics scrapes around the measured loop into
// the server-side per-layer numbers: per-route mean request time, mean
// score and repair phase time, and the fit stages of the one fit the
// server made.
func serverMetrics(before, after map[string]float64) map[string]float64 {
	mean := func(series, labels string) float64 {
		n := after[series+"_count"+labels] - before[series+"_count"+labels]
		if n == 0 {
			return 0
		}
		return (after[series+"_sum"+labels] - before[series+"_sum"+labels]) / n * 1e3
	}
	out := map[string]float64{
		"serve.score_phase_ms":  mean("zeroedd_score_seconds", ""),
		"serve.repair_phase_ms": mean("zeroedd_repair_seconds", ""),
	}
	for _, r := range routeNames {
		out["serve."+r+".server_ms"] = mean("zeroedd_http_request_seconds", `{route="POST /v1/models/{id}/`+r+`"}`)
	}
	for _, st := range fitStages {
		out["zeroed.fit."+st+"_ms"] = after[`zeroedd_fit_stage_seconds{stage="`+st+`"}`] * 1e3
	}
	return out
}

// httpTarget sends requests to a registered model over loopback HTTP, one
// connection per client, and checks every reply against the gate.
type httpTarget struct {
	base    string
	clients []*http.Client // by lane-1
	g       *gate
	chunk   int
}

func (h *httpTarget) do(r route, k int, tr *tracer, lane int) sample {
	var url string
	var body []byte
	switch r {
	case routeScore:
		url, body = h.base+"/score", h.g.batches[k].csv
	case routeRepair:
		url, body = h.base+"/repair", h.g.batches[k].csv
	case routeStream:
		url, body = fmt.Sprintf("%s/stream?chunk=%d", h.base, h.chunk), h.g.streams[k].csv
	}
	var s sample
	sp := tr.begin("http."+routeNames[r], -1, lane)
	start := time.Now()
	reply, code, err := h.send(h.clients[lane-1], url, body, start, &s.firstMS)
	s.ms = ms(time.Since(start))
	tr.end(sp, int64(len(reply)))
	if err != nil || code != http.StatusOK {
		return s
	}
	switch r {
	case routeScore:
		seg, err := segment(reply)
		s.ok, s.rows = err == nil && bytes.Equal(seg, h.g.batches[k].scoreSeg), len(h.g.batches[k].rows)
	case routeRepair:
		seg, err := segment(reply)
		s.ok, s.rows = err == nil && bytes.Equal(seg, h.g.batches[k].repairSeg), len(h.g.batches[k].rows)
	case routeStream:
		s.ok, s.rows = checkStream(reply, h.g.streams[k]), h.g.streams[k].rows
	}
	if !s.ok {
		s.rows = 0
	}
	return s
}

// send posts body and reads the whole reply, noting when its first line
// was complete.
func (h *httpTarget) send(c *http.Client, url string, body []byte, start time.Time, firstMS *float64) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "text/csv")
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	reply := make([]byte, 0, 64<<10)
	var buf [32 << 10]byte
	for {
		n, err := resp.Body.Read(buf[:])
		if *firstMS == 0 && bytes.IndexByte(buf[:n], '\n') >= 0 {
			*firstMS = ms(time.Since(start))
		}
		reply = append(reply, buf[:n]...)
		if err == io.EOF {
			return reply, resp.StatusCode, nil
		}
		if err != nil {
			return reply, resp.StatusCode, err
		}
	}
}
