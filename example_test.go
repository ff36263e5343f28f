package ccpfs_test

import (
	"fmt"
	"io"
	"log"

	"ccpfs"
)

// The canonical flow: build a cluster, write from one client, read from
// another — coherence enforced by the DLM, no explicit synchronization.
func ExampleNewCluster() {
	c, err := ccpfs.NewCluster(ccpfs.Options{
		Servers:  2,
		Policy:   ccpfs.SeqDLM(),
		Hardware: ccpfs.FastHardware(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	writer, err := c.NewClient("writer")
	if err != nil {
		log.Fatal(err)
	}
	defer writer.Close()
	f, err := writer.Create("/greeting", 1<<20, 2)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("hello from the client cache"), 0); err != nil {
		log.Fatal(err)
	}

	reader, err := c.NewClient("reader")
	if err != nil {
		log.Fatal(err)
	}
	defer reader.Close()
	g, err := reader.Open("/greeting")
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 27)
	if _, err := g.ReadAt(buf, 0); err != nil && err != io.EOF {
		log.Fatal(err)
	}
	fmt.Println(string(buf))
	// Output: hello from the client cache
}

// Running a canned workload: the N-1 strided pattern that motivates the
// paper, on a fast (undelayed) cluster, once under SeqDLM and once under
// each of the paper's three baselines. Every policy must leave the same
// bytes behind.
func ExampleRunIOR() {
	for _, policy := range []ccpfs.Policy{ccpfs.SeqDLM(), ccpfs.DLMBasic(), ccpfs.DLMLustre(), ccpfs.DLMDatatype()} {
		c, err := ccpfs.NewCluster(ccpfs.Options{
			Servers:  1,
			Policy:   policy,
			Hardware: ccpfs.FastHardware(),
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := ccpfs.RunIOR(c, ccpfs.IORConfig{
			Pattern:         ccpfs.PatternN1Strided,
			Clients:         4,
			WriteSize:       64 << 10,
			WritesPerClient: 4,
			StripeSize:      1 << 20,
			StripeCount:     1,
			Verify:          true, // read everything back and check it
		})
		c.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: wrote and verified %d KiB in %d ops\n", policy.Name, res.Bytes>>10, res.Ops)
	}
	// Output:
	// SeqDLM: wrote and verified 1024 KiB in 16 ops
	// DLM-basic: wrote and verified 1024 KiB in 16 ops
	// DLM-Lustre: wrote and verified 1024 KiB in 16 ops
	// DLM-datatype: wrote and verified 1024 KiB in 16 ops
}

// Atomic appends from concurrent clients never interleave: each lands at
// the file's end, read from its stripes under PW locks.
func ExampleFile_Append() {
	c, err := ccpfs.NewCluster(ccpfs.Options{
		Servers:  1,
		Policy:   ccpfs.SeqDLM(),
		Hardware: ccpfs.FastHardware(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	cl, err := c.NewClient("appender")
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	f, err := cl.Create("/log", 1<<20, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, rec := range []string{"alpha", "beta", "gamma"} {
		off, err := f.Append([]byte(rec))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s at %d\n", rec, off)
	}
	// Output:
	// alpha at 0
	// beta at 5
	// gamma at 9
}
