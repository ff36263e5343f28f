package dlm_test

import (
	"context"
	"sync"
	"testing"

	"ccpfs/internal/dlm"
	"ccpfs/internal/extent"
)

// The lock manager outside a file system (the paper's future-work
// direction): a coherent cache layer needs only dlm's exported API — a
// Server behind a Notifier, a LockClient per node with a Flusher for its
// write-back path, Handle.SN to tag cached data — and, on the storage
// side, extent.Tree to keep the newest SN of every byte.

// kvStore is a miniature coherent cache layer built directly on that
// API: one lock resource guards one shared byte region, writers cache
// locally and write back at cancel, and the storage side uses the SN
// tree to keep the newest version.
type kvStore struct {
	mu   sync.Mutex
	tree extent.Tree
	data map[int64]byte // byte-granular backing store
}

func (s *kvStore) applyWriteBack(rng extent.Extent, sn extent.SN, val byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, won := range s.tree.Insert(rng, sn) {
		for off := won.Start; off < won.End; off++ {
			s.data[off] = val
		}
	}
}

type cachedWrite struct {
	rng extent.Extent
	sn  extent.SN
	val byte
}

type node struct {
	lc    *dlm.LockClient
	mu    sync.Mutex
	dirty []cachedWrite
	store *kvStore
}

func (n *node) write(rng extent.Extent, val byte) error {
	h, err := n.lc.Acquire(context.Background(), 1, dlm.NBW, rng)
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.dirty = append(n.dirty, cachedWrite{rng: rng, sn: h.SN(), val: val})
	n.mu.Unlock()
	n.lc.Unlock(h)
	return nil
}

// flushForCancel is the Flusher hook: write back everything at or below
// the canceling lock's SN.
func (n *node) flushForCancel(_ context.Context, res dlm.ResourceID, rng extent.Extent, sn extent.SN) error {
	n.mu.Lock()
	var keep, flush []cachedWrite
	for _, w := range n.dirty {
		if w.sn <= sn && w.rng.Overlaps(rng) {
			flush = append(flush, w)
		} else {
			keep = append(keep, w)
		}
	}
	n.dirty = keep
	n.mu.Unlock()
	for _, w := range flush {
		n.store.applyWriteBack(w.rng, w.sn, w.val)
	}
	return nil
}

func TestEmbedSeqDLMAsCoherentCacheLayer(t *testing.T) {
	store := &kvStore{data: make(map[int64]byte)}
	srv := dlm.NewServer(dlm.SeqDLM(), nil)

	nodes := make(map[dlm.ClientID]*node)
	srv.SetNotifier(dlm.NotifierFunc(func(_ context.Context, rv dlm.Revocation) {
		if n, ok := nodes[rv.Client]; ok {
			n.lc.OnRevoke(rv.Resource, rv.Lock)
		}
		srv.RevokeAck(rv.Resource, rv.Lock)
	}))

	router := func(dlm.ResourceID) dlm.ServerConn { return embedConn{srv} }
	for id := dlm.ClientID(1); id <= 4; id++ {
		n := &node{store: store}
		n.lc = dlm.NewLockClient(id, dlm.SeqDLM(), router, dlm.FlusherFunc(n.flushForCancel))
		nodes[id] = n
	}

	// Four nodes race overlapping writes; the SN machinery must make the
	// store converge to the last grant's value on every byte.
	var wg sync.WaitGroup
	for id, n := range nodes {
		wg.Add(1)
		go func(id dlm.ClientID, n *node) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if err := n.write(extent.New(0, 100), byte(id)*10+byte(k)); err != nil {
					t.Errorf("node %d: %v", id, err)
					return
				}
			}
		}(id, n)
	}
	wg.Wait()
	for _, n := range nodes {
		n.lc.ReleaseAll(context.Background())
	}
	if err := srv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// After all locks are released, every write was flushed and the store
	// holds the value of the write with the LARGEST SN on every byte.
	store.mu.Lock()
	defer store.mu.Unlock()
	maxSN, ok := store.tree.MaxSNOverlapping(extent.New(0, 100))
	if !ok {
		t.Fatal("nothing reached the store")
	}
	want := store.data[0]
	for off := int64(0); off < 100; off++ {
		if store.data[off] != want {
			t.Fatalf("store not convergent at byte %d: %d vs %d", off, store.data[off], want)
		}
	}
	if maxSN == 0 {
		t.Fatal("no write-mode SNs recorded")
	}
}

type embedConn struct{ srv *dlm.Server }

func (d embedConn) Lock(ctx context.Context, req dlm.Request) (dlm.Grant, error) {
	return d.srv.Lock(ctx, req)
}
func (d embedConn) Release(_ context.Context, res dlm.ResourceID, id dlm.LockID) error {
	d.srv.Release(res, id)
	return nil
}
func (d embedConn) Downgrade(_ context.Context, res dlm.ResourceID, id dlm.LockID, m dlm.Mode) error {
	return d.srv.Downgrade(res, id, m)
}
