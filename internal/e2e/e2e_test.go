// Package e2e builds the real ccpfs-server and ccpfs-cli binaries and
// drives them as a user would: start two servers over TCP, put, ls,
// stat, get, verify, bench, rm.
package e2e

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// build compiles a command into dir and returns the binary path.
func build(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // internal/e2e -> repo root
}

// freePorts picks n distinct ephemeral TCP addresses. It holds all n
// listeners until the last one is bound, so the kernel cannot hand the
// same port out twice, and closes them before it returns, for the
// servers under test to bind.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server at %s never came up", addr)
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	server := build(t, dir, "./cmd/ccpfs-server", "ccpfs-server")
	cli := build(t, dir, "./cmd/ccpfs-cli", "ccpfs-cli")

	addrs := freePorts(t, 2)
	addr0, addr1 := addrs[0], addrs[1]
	data0 := filepath.Join(dir, "data0")
	data1 := filepath.Join(dir, "data1")

	srv0 := exec.Command(server, "-listen", addr0, "-meta", "-data", data0, "-extent-log")
	srv1 := exec.Command(server, "-listen", addr1, "-data", data1)
	for _, s := range []*exec.Cmd{srv0, srv1} {
		s.Stdout, s.Stderr = os.Stderr, os.Stderr
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer func(s *exec.Cmd) {
			s.Process.Kill()
			s.Wait()
		}(s)
	}
	waitListening(t, addr0)
	waitListening(t, addr1)
	servers := addr0 + "," + addr1

	run := func(id int, args ...string) string {
		t.Helper()
		full := append([]string{"-servers", servers, "-id", fmt.Sprint(id)}, args...)
		out, err := exec.Command(cli, full...).CombinedOutput()
		if err != nil {
			t.Fatalf("ccpfs-cli %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// put a file with distinctive content spanning both stripes.
	local := filepath.Join(dir, "payload.bin")
	payload := bytes.Repeat([]byte("ccpfs end to end "), 200_000) // ~3.4 MB
	if err := os.WriteFile(local, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	run(101, "put", local, "/payload")

	if out := run(102, "ls"); !strings.Contains(out, "/payload") {
		t.Fatalf("ls output missing file:\n%s", out)
	}
	if out := run(103, "stat", "/payload"); !strings.Contains(out, fmt.Sprintf("size=%d", len(payload))) {
		t.Fatalf("stat output wrong:\n%s", out)
	}

	// get from a different client identity and verify bytes.
	copyPath := filepath.Join(dir, "copy.bin")
	run(104, "get", "/payload", copyPath)
	got, err := os.ReadFile(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip corrupted: %d bytes vs %d", len(got), len(payload))
	}

	if out := run(105, "bench", "64KB", "20"); !strings.Contains(out, "PIO") {
		t.Fatalf("bench output wrong:\n%s", out)
	}

	run(106, "rm", "/payload")
	if out := run(107, "ls"); strings.Contains(out, "/payload") {
		t.Fatalf("file survived rm:\n%s", out)
	}

	// The data directories and the extent log exist on disk.
	if _, err := os.Stat(filepath.Join(data0, "extent.log")); err != nil {
		t.Fatalf("extent log not persisted: %v", err)
	}
}
