// Command ccpfs-cli is a small client for standalone ccpfs-server
// deployments: put/get/stat/rm files and run a quick write benchmark
// over real TCP.
//
// Usage:
//
//	ccpfs-cli -servers host0:9040,host1:9041 put local.dat /remote.dat
//	ccpfs-cli -servers host0:9040 get /remote.dat copy.dat
//	ccpfs-cli -servers host0:9040 stat /remote.dat
//	ccpfs-cli -servers host0:9040 rm /remote.dat
//	ccpfs-cli -servers host0:9040 bench 64KB 100
//
// The server list must be identical (same order) across every client of
// a deployment: stripe placement hashes over the list index. The first
// server must host the namespace (-meta).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"ccpfs/internal/client"
	"ccpfs/internal/dlm"
	"ccpfs/internal/rpc"
	"ccpfs/internal/transport/tcpnet"
)

// parseSize parses a positive byte count with an optional B, KB or MB
// suffix (binary multiples, any case).
func parseSize(s string) (int64, error) {
	num := strings.ToUpper(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(num, "MB"):
		mult, num = 1<<20, strings.TrimSuffix(num, "MB")
	case strings.HasSuffix(num, "KB"):
		mult, num = 1<<10, strings.TrimSuffix(num, "KB")
	case strings.HasSuffix(num, "B"):
		num = strings.TrimSuffix(num, "B")
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, err
	}
	if n <= 0 || n > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %q out of range", s)
	}
	return n * mult, nil
}

func main() {
	servers := flag.String("servers", "localhost:9040", "comma-separated data servers; first hosts the namespace")
	policy := flag.String("policy", "seqdlm", "DLM policy (must match the servers)")
	id := flag.Uint("id", 0, "client ID (unique per deployment; derived from PID when 0)")
	stripeSize := flag.String("stripe-size", "1MB", "stripe size for created files")
	stripes := flag.Uint("stripes", 0, "stripe count for created files (server count when 0)")
	flag.Parse()

	pol, err := dlm.PolicyByName(*policy)
	if err != nil {
		log.Fatal(err)
	}
	addrs := strings.Split(*servers, ",")
	cid := dlm.ClientID(*id)
	if cid == 0 {
		cid = dlm.ClientID(os.Getpid()&0xFFFF | 0x10000)
	}
	ssize, err := parseSize(*stripeSize)
	if err != nil {
		log.Fatalf("bad stripe size: %v", err)
	}
	scount := uint32(*stripes)
	if scount == 0 {
		scount = uint32(len(addrs))
	}

	net := tcpnet.New()
	conns := client.Conns{}
	for i, addr := range addrs {
		conn, err := net.Dial(strings.TrimSpace(addr))
		if err != nil {
			log.Fatalf("dialing %s: %v", addr, err)
		}
		ep := rpc.NewEndpoint(conn, rpc.Options{})
		conns.Data = append(conns.Data, ep)
		if i == 0 {
			conns.Meta = ep
		}
	}
	cl, err := client.New(context.Background(), client.Config{
		Name:   fmt.Sprintf("cli-%d", cid),
		ID:     cid,
		Policy: pol,
	}, conns)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("usage: ccpfs-cli [flags] put|get|stat|ls|rm|bench ...")
	}
	switch args[0] {
	case "put":
		if len(args) != 3 {
			log.Fatal("usage: put <local> <remote>")
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			log.Fatal(err)
		}
		f, err := cl.OpenOrCreate(args[2], ssize, scount)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			log.Fatal(err)
		}
		if err := f.Fsync(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d bytes to %s\n", len(data), args[2])
	case "get":
		if len(args) != 3 {
			log.Fatal("usage: get <remote> <local>")
		}
		f, err := cl.Open(args[1])
		if err != nil {
			log.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, size)
		if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
			log.Fatal(err)
		}
		if err := os.WriteFile(args[2], buf, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("read %d bytes from %s\n", size, args[1])
	case "stat":
		if len(args) != 2 {
			log.Fatal("usage: stat <remote>")
		}
		f, err := cl.Open(args[1])
		if err != nil {
			log.Fatal(err)
		}
		size, err := f.Size()
		if err != nil {
			log.Fatal(err)
		}
		ss, sc := f.Layout()
		fmt.Printf("%s: fid=%d size=%d stripeSize=%d stripes=%d\n", args[1], f.FID(), size, ss, sc)
	case "ls":
		paths, err := cl.List()
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range paths {
			fmt.Println(p)
		}
	case "rm":
		if len(args) != 2 {
			log.Fatal("usage: rm <remote>")
		}
		if err := cl.Remove(args[1]); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("removed %s\n", args[1])
	case "bench":
		if len(args) != 3 {
			log.Fatal("usage: bench <write-size> <count>")
		}
		ws, err := parseSize(args[1])
		if err != nil {
			log.Fatal(err)
		}
		count, err := strconv.Atoi(args[2])
		if err != nil {
			log.Fatal(err)
		}
		f, err := cl.OpenOrCreate("/bench.dat", ssize, scount)
		if err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, ws)
		start := time.Now()
		for i := 0; i < count; i++ {
			if _, err := f.WriteAt(buf, int64(i)*ws); err != nil {
				log.Fatal(err)
			}
		}
		pio := time.Since(start)
		if err := f.Fsync(); err != nil {
			log.Fatal(err)
		}
		total := time.Since(start)
		bytes := int64(count) * ws
		fmt.Printf("PIO: %d x %s in %v (%.1f MB/s); with flush: %v (%.1f MB/s)\n",
			count, args[1], pio, float64(bytes)/pio.Seconds()/1e6,
			total, float64(bytes)/total.Seconds()/1e6)
	default:
		log.Fatalf("unknown command %q", args[0])
	}
}
