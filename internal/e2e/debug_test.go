// The /debug endpoint smoke test: start a real ccpfs-server with
// -debug, push traffic through it with ccpfs-cli (locks, writes,
// flushes), and scrape /debug/metrics the way an operator would with
// curl. This is the acceptance check for the observability layer: the
// JSON must carry the DLM grant-wait percentiles and the per-method
// RPC latency histograms, and the counters must have moved.
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestDebugEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	server := build(t, dir, "./cmd/ccpfs-server", "ccpfs-server")
	cli := build(t, dir, "./cmd/ccpfs-cli", "ccpfs-cli")

	addrs := freePorts(t, 2)
	addr, debugAddr := addrs[0], addrs[1]
	srv := exec.Command(server,
		"-listen", addr, "-meta", "-data", filepath.Join(dir, "data"),
		"-debug", debugAddr)
	srv.Stdout, srv.Stderr = os.Stderr, os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	waitListening(t, addr)
	waitListening(t, debugAddr)

	// Generate traffic: a put takes locks, writes blocks, and flushes.
	local := filepath.Join(dir, "payload.bin")
	if err := os.WriteFile(local, bytes.Repeat([]byte("obs"), 100_000), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, args := range [][]string{
		{"put", local, "/payload"},
		{"get", "/payload", filepath.Join(dir, "copy.bin")},
	} {
		full := append([]string{"-servers", addr, "-id", fmt.Sprint(201 + i)}, args...)
		if out, err := exec.Command(cli, full...).CombinedOutput(); err != nil {
			t.Fatalf("ccpfs-cli %v: %v\n%s", args, err, out)
		}
	}

	resp, err := http.Get("http://" + debugAddr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/metrics: %s\n%s", resp.Status, body)
	}

	var snap struct {
		Counters   map[string]int64           `json:"counters"`
		Gauges     map[string]int64           `json:"gauges"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics endpoint returned invalid JSON: %v\n%s", err, body)
	}

	// The lock path ran: grants counted, and the grant-wait histogram is
	// present with percentile fields (it may be all zeros if every grant
	// was immediate — presence and shape are the contract).
	if snap.Gauges["dlm.grants"] == 0 {
		t.Fatalf("dlm.grants did not move:\n%s", body)
	}
	if _, ok := snap.Gauges["dlm.ack_solicits"]; !ok {
		t.Fatalf("dlm.ack_solicits missing:\n%s", body)
	}
	gw, ok := snap.Histograms["dlm.grant_wait"]
	if !ok {
		t.Fatalf("dlm.grant_wait histogram missing:\n%s", body)
	}
	for _, field := range []string{"p50_ns", "p90_ns", "p99_ns"} {
		if !strings.Contains(string(gw), field) {
			t.Fatalf("dlm.grant_wait missing %s:\n%s", field, gw)
		}
	}

	// The rpc layer saw traffic: per-method handle counters and at least
	// one per-method latency histogram (the first call of every method
	// is always clock-timed, whatever the sampling interval).
	var handled, timed bool
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "rpc.handles.") && v > 0 {
			handled = true
		}
	}
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "rpc.handle.") {
			timed = true
		}
	}
	if !handled || !timed {
		t.Fatalf("rpc per-method metrics missing (handled=%v timed=%v):\n%s", handled, timed, body)
	}
	if snap.Counters["rpc.bytes_in"] == 0 || snap.Counters["rpc.bytes_out"] == 0 {
		t.Fatalf("rpc byte counters did not move:\n%s", body)
	}

	// The write path ran through the extent cache.
	if snap.Gauges["extcache.inserts"] == 0 {
		t.Fatalf("extcache.inserts did not move:\n%s", body)
	}

	// The device-queue counters are served. This server writes to real
	// files with no simulated device, so they are present and zero.
	for _, name := range []string{"storage.write_requests", "storage.write_ops",
		"storage.read_requests", "storage.read_ops", "storage.busy_ns"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("%s missing:\n%s", name, body)
		}
	}
	if _, ok := snap.Histograms["storage.queue_depth"]; !ok {
		t.Fatalf("storage.queue_depth histogram missing:\n%s", body)
	}

	// The text rendering works too (operators use ?format=text).
	tr, err := http.Get("http://" + debugAddr + "/debug/metrics?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(tr.Body)
	tr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "dlm.grant_wait") {
		t.Fatalf("text rendering missing dlm.grant_wait:\n%s", text)
	}
}
