// Command ccpfs-server runs a standalone ccPFS data server (IO service +
// DLM service, optionally the namespace service) over real TCP — the
// same code paths the simulated cluster runs, on a real fabric.
//
// A two-server deployment hosting the namespace on the first:
//
//	ccpfs-server -listen :9040 -meta -data /var/ccpfs0 &
//	ccpfs-server -listen :9041 -data /var/ccpfs1 &
//	ccpfs-cli -servers localhost:9040,localhost:9041 put /etc/hosts /hosts
//
// With -lock-servers N -lock-index I the node masters only its static
// share of the lock space's hash slots (slot s belongs to server s % N;
// DESIGN.md §12) and redirects lock RPCs for the rest with ErrNotOwner,
// so N processes can split lock traffic N ways:
//
//	ccpfs-server -listen :9040 -meta -lock-servers 2 -lock-index 0 &
//	ccpfs-server -listen :9041 -lock-servers 2 -lock-index 1 &
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"ccpfs/internal/dataserver"
	"ccpfs/internal/dlm"
	"ccpfs/internal/meta"
	"ccpfs/internal/storage"
	"ccpfs/internal/transport/tcpnet"
)

func main() {
	listen := flag.String("listen", ":9040", "TCP listen address")
	dataDir := flag.String("data", "", "stripe store directory (in-memory when empty)")
	policy := flag.String("policy", "seqdlm", "DLM policy: seqdlm|basic|lustre|datatype")
	hostMeta := flag.Bool("meta", false, "also host the namespace service (exactly one server per deployment)")
	extentLog := flag.Bool("extent-log", false, "keep per-stripe extent logs for recovery")
	cleanup := flag.Duration("cleanup", 100*time.Millisecond, "extent cache cleanup interval (0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown budget before a hard close (0 closes immediately)")
	debug := flag.String("debug", "", "serve /debug/metrics, /debug/trace and pprof on this address (e.g. localhost:6060; off when empty)")
	traceEvents := flag.Int("trace-events", 4096, "DLM protocol events kept for /debug/trace (with -debug)")
	lockServers := flag.Int("lock-servers", 0, "partition the lock space across this many lock servers (0 = unpartitioned)")
	lockIndex := flag.Int("lock-index", 0, "this node's index in the static lock partition (with -lock-servers)")
	flag.Parse()

	pol, err := dlm.PolicyByName(*policy)
	if err != nil {
		log.Fatal(err)
	}
	if *lockServers < 0 || (*lockServers > 0 && (*lockIndex < 0 || *lockIndex >= *lockServers)) {
		log.Fatalf("-lock-index %d out of range for -lock-servers %d", *lockIndex, *lockServers)
	}

	cfg := dataserver.Config{
		Name:            *listen,
		Policy:          pol,
		ExtentLog:       *extentLog,
		CleanupInterval: *cleanup,
	}
	if *debug != "" {
		cfg.TraceEvents = *traceEvents
	}
	if *lockServers > 0 {
		// Static mastership: no coordinator, no leases — each node
		// permanently masters slot s where s % lockServers == lockIndex,
		// and serves the corresponding epoch-1 partition map to clients.
		cfg.Partition = &dataserver.PartitionConfig{
			Index:   int32(*lockIndex),
			Servers: *lockServers,
		}
	}
	if *dataDir != "" {
		fs, err := storage.NewFileStore(*dataDir)
		if err != nil {
			log.Fatalf("opening store: %v", err)
		}
		defer fs.Close()
		cfg.Store = fs
		if *extentLog {
			// Persist the extent log next to the data so recovery works
			// across real restarts.
			cfg.ExtentLogDir = *dataDir
		}
	}
	if *hostMeta {
		cfg.Meta = meta.NewService()
	}

	l, err := tcpnet.New().Listen(*listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	srv := dataserver.New(cfg)
	srv.Serve(l)
	log.Printf("ccpfs-server: policy=%s meta=%v data=%q listening on %s",
		pol.Name, *hostMeta, *dataDir, l.Addr())
	if *lockServers > 0 {
		log.Printf("ccpfs-server: lock partition %d/%d (static, %d slots)",
			*lockIndex, *lockServers, len(srv.DLM.OwnedSlots()))
	}

	var debugSrv *http.Server
	if *debug != "" {
		dl, err := net.Listen("tcp", *debug)
		if err != nil {
			log.Fatalf("debug listen: %v", err)
		}
		debugSrv = &http.Server{Handler: srv.DebugHandler()}
		go debugSrv.Serve(dl)
		log.Printf("ccpfs-server: debug endpoint on http://%s/debug/metrics", dl.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // restore default signal handling: a second signal kills us
	if debugSrv != nil {
		debugSrv.Close()
	}
	if *drain <= 0 {
		log.Printf("ccpfs-server: shutting down (immediate)")
		srv.Close()
		return
	}
	log.Printf("ccpfs-server: draining (budget %v; signal again to force)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("ccpfs-server: drain incomplete: %v; forcing close", err)
		srv.Close()
		return
	}
	log.Printf("ccpfs-server: drained cleanly")
}
