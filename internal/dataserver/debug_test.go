package dataserver_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ccpfs/internal/cluster"
	"ccpfs/internal/dlm"
	"ccpfs/internal/obs"
	"ccpfs/internal/sim"
)

// TestDebugHandler serves a data server's diagnostic surface after
// several clients read one range at once on the Table I device: the
// metrics show the reads sharing device operations, as JSON and as a
// table, and the trace endpoint is absent without TraceEvents.
func TestDebugHandler(t *testing.T) {
	const readers, n = 4, 64 << 10
	v := sim.NewVClock(1)
	hw := sim.TableI(1)
	hw.Clock = sim.Virtual(v)
	serve := func(h http.Handler, url string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, url, nil))
		return w
	}
	var metrics, table, trace *httptest.ResponseRecorder
	var err error
	v.Run(func() {
		var c *cluster.Cluster
		if c, err = cluster.New(cluster.Options{Servers: 1, Policy: dlm.SeqDLM(), Hardware: hw}); err != nil {
			return
		}
		defer c.Close()
		want := bytes.Repeat([]byte{7}, n)
		w, e := c.NewClient("writer")
		if err = e; err != nil {
			return
		}
		defer w.Close()
		f, e := w.OpenOrCreate("/shared", 1<<20, 1)
		if err = e; err != nil {
			return
		}
		if _, err = f.WriteAt(want, 0); err != nil {
			return
		}
		if err = f.Fsync(); err != nil {
			return
		}
		g := sim.NewGroup(hw.Clock)
		for i := 0; i < readers; i++ {
			cl, e := c.NewClient(fmt.Sprintf("reader-%d", i))
			if err = e; err != nil {
				return
			}
			defer cl.Close()
			rf, e := cl.OpenOrCreate("/shared", 1<<20, 1)
			if err = e; err != nil {
				return
			}
			g.Go(func() {
				buf := make([]byte, n)
				if _, e := rf.ReadAt(buf, 0); e != nil || !bytes.Equal(buf, want) {
					t.Errorf("reader %d: wrong bytes (%v)", i, e)
				}
			})
		}
		g.Wait()
		h := c.Servers[0].DebugHandler()
		metrics = serve(h, "/debug/metrics")
		table = serve(h, "/debug/metrics?format=text")
		trace = serve(h, "/debug/trace")
	})
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(metrics.Body.Bytes(), &snap); err != nil || metrics.Code != http.StatusOK {
		t.Fatalf("/debug/metrics: status %d, %v", metrics.Code, err)
	}
	if reqs, ops := snap.Counters["storage.read_requests"], snap.Counters["storage.read_ops"]; reqs <= ops {
		t.Fatalf("/debug/metrics: %d read requests in %d read ops, want fewer ops", reqs, ops)
	}
	if !strings.Contains(table.Body.String(), "storage.read_ops") || table.Code != http.StatusOK {
		t.Fatalf("/debug/metrics?format=text: status %d, no storage.read_ops row:\n%s", table.Code, table.Body)
	}
	if trace.Code != http.StatusNotFound {
		t.Fatalf("/debug/trace without TraceEvents: status %d, want 404", trace.Code)
	}
}
