// Package storage provides the per-stripe block stores data servers
// write flushed data into. Three implementations share one interface:
// an in-memory sparse store, a file-backed store for the standalone
// server binary, and SimStore (device.go), which puts a simulated NVMe
// device — one merging request queue, bandwidth plus per-operation
// latency — in front of either.
package storage

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"ccpfs/internal/shard"
)

// Vec is one extent of a vectored write: Data lands at Off within the
// stripe.
type Vec struct {
	Off  int64
	Data []byte
}

// Store is a stripe-addressed byte store. Offsets are stripe-local.
type Store interface {
	// WriteAt stores data at off within stripe.
	WriteAt(stripe uint64, off int64, data []byte) error
	// WriteV submits the extents of vec, all within stripe. vec's bytes
	// are stored or copied when WriteV returns, so the caller may reuse
	// them at once; it must still call Wait on the result exactly once,
	// which returns when the write is done (on a simulated device, when
	// its simulated time has passed). Submission order is storage order:
	// where the extents of two WriteV calls overlap, the bytes of the call
	// that returned second stay.
	WriteV(stripe uint64, vec []Vec) Pending
	// ReadAt fills buf from off within stripe. Never-written ranges read
	// as zeros.
	ReadAt(stripe uint64, off int64, buf []byte) error
	// Remove drops a stripe's data.
	Remove(stripe uint64) error
}

// chunkSize is the allocation unit of the sparse in-memory store.
const chunkSize = 64 << 10

// MemStore is a sparse in-memory Store. It is safe for concurrent use:
// the stripe map is sharded (shard.Of) so flushes to different stripes
// land in parallel, serializing only per shard.
type MemStore struct {
	shards [shard.Count]memShard
}

type memShard struct {
	mu      sync.RWMutex
	stripes map[uint64]map[int64][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	m := &MemStore{}
	for i := range m.shards {
		m.shards[i].stripes = make(map[uint64]map[int64][]byte)
	}
	return m
}

// WriteAt implements Store.
func (m *MemStore) WriteAt(stripe uint64, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("storage: negative offset %d", off)
	}
	sh := &m.shards[shard.Of(stripe)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	chunks := sh.stripes[stripe]
	if chunks == nil {
		chunks = make(map[int64][]byte)
		sh.stripes[stripe] = chunks
	}
	for len(data) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		n := int64(len(data))
		if n > chunkSize-co {
			n = chunkSize - co
		}
		switch c := chunks[ci]; {
		case c != nil:
			copy(c[co:co+n], data[:n])
		case n == chunkSize:
			// A write that covers an absent chunk whole is the chunk: one
			// copy, with no zeroing first.
			chunks[ci] = bytes.Clone(data[:n])
		default:
			c = make([]byte, chunkSize)
			copy(c[co:co+n], data[:n])
			chunks[ci] = c
		}
		data = data[n:]
		off += n
	}
	return nil
}

// WriteV implements Store as a loop of WriteAt.
func (m *MemStore) WriteV(stripe uint64, vec []Vec) Pending {
	return writeEach(m, stripe, vec)
}

// writeEach stores vec through s.WriteAt, stopping at the first error.
func writeEach(s Store, stripe uint64, vec []Vec) Pending {
	for _, v := range vec {
		if err := s.WriteAt(stripe, v.Off, v.Data); err != nil {
			return Pending{err: err}
		}
	}
	return Pending{}
}

// ReadAt implements Store.
func (m *MemStore) ReadAt(stripe uint64, off int64, buf []byte) error {
	if off < 0 {
		return fmt.Errorf("storage: negative offset %d", off)
	}
	sh := &m.shards[shard.Of(stripe)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	chunks := sh.stripes[stripe]
	for len(buf) > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		n := int64(len(buf))
		if n > chunkSize-co {
			n = chunkSize - co
		}
		if c := chunks[ci]; c != nil {
			copy(buf[:n], c[co:co+n])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		off += n
	}
	return nil
}

// Remove implements Store.
func (m *MemStore) Remove(stripe uint64) error {
	sh := &m.shards[shard.Of(stripe)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.stripes, stripe)
	return nil
}

// Bytes returns the number of chunk bytes allocated (tests/introspection).
func (m *MemStore) Bytes() int64 {
	var n int64
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, chunks := range sh.stripes {
			n += int64(len(chunks)) * chunkSize
		}
		sh.mu.RUnlock()
	}
	return n
}

// FileStore keeps each stripe in its own file under a directory.
type FileStore struct {
	dir string
	mu  sync.Mutex
	fds map[uint64]*os.File
}

// NewFileStore returns a store rooted at dir, creating it if needed.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileStore{dir: dir, fds: make(map[uint64]*os.File)}, nil
}

func (f *FileStore) file(stripe uint64) (*os.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if fd, ok := f.fds[stripe]; ok {
		return fd, nil
	}
	fd, err := os.OpenFile(filepath.Join(f.dir, fmt.Sprintf("stripe-%d", stripe)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	f.fds[stripe] = fd
	return fd, nil
}

// WriteAt implements Store.
func (f *FileStore) WriteAt(stripe uint64, off int64, data []byte) error {
	fd, err := f.file(stripe)
	if err != nil {
		return err
	}
	_, err = fd.WriteAt(data, off)
	return err
}

// WriteV implements Store as a loop of WriteAt.
func (f *FileStore) WriteV(stripe uint64, vec []Vec) Pending {
	return writeEach(f, stripe, vec)
}

// ReadAt implements Store. The part of buf past the end of the stripe's
// file reads as zeros; any other read error is returned.
func (f *FileStore) ReadAt(stripe uint64, off int64, buf []byte) error {
	fd, err := f.file(stripe)
	if err != nil {
		return err
	}
	n, err := fd.ReadAt(buf, off)
	if err == io.EOF {
		clear(buf[n:])
		return nil
	}
	return err
}

// Remove implements Store.
func (f *FileStore) Remove(stripe uint64) error {
	f.mu.Lock()
	fd, ok := f.fds[stripe]
	if ok {
		delete(f.fds, stripe)
	}
	f.mu.Unlock()
	if ok {
		fd.Close()
	}
	err := os.Remove(filepath.Join(f.dir, fmt.Sprintf("stripe-%d", stripe)))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Close closes all open stripe files.
func (f *FileStore) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var first error
	for _, fd := range f.fds {
		if err := fd.Close(); err != nil && first == nil {
			first = err
		}
	}
	f.fds = make(map[uint64]*os.File)
	return first
}
