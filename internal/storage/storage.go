// Package storage provides the per-stripe block stores data servers
// write flushed data into. Three implementations share one interface:
// an in-memory sparse store, a file-backed store for the standalone
// server binary, and SimStore (device.go), which puts a simulated NVMe
// device — one request queue that merges adjacent and covered writes,
// bandwidth plus per-operation latency — in front of either.
package storage

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
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
	// them at once — unless it offers frame and the result is Kept. A
	// non-nil frame is the whole buffer every vec[i].Data lies in, handed
	// over with the call: a store may keep parts of it as its stored
	// bytes instead of copying them (MemStore does, by keepFrame's rule),
	// and then reports Kept, and frame is the store's for good — the
	// caller must neither touch nor recycle it. When the result is not
	// Kept the caller still owns frame. The caller must call Wait on the
	// result exactly once, which returns when the write is done (on a
	// simulated device, when its simulated time has passed). Submission
	// order is storage order: where the extents of two WriteV calls
	// overlap, the bytes of the call that returned second stay.
	WriteV(stripe uint64, vec []Vec, frame []byte) Pending
	// ReadAt fills buf from off within stripe. Never-written ranges read
	// as zeros.
	ReadAt(stripe uint64, off int64, buf []byte) error
	// Truncate sets the stripe's end to size: the bytes at and past it
	// read as zeros until they are written again, and a cut past the end
	// extends the stripe with zeros.
	Truncate(stripe uint64, size int64) error
	// End returns the stripe's end, as a file's length: the largest end
	// of a write since the last Truncate, or that Truncate's size if it
	// is larger. A never-written stripe ends at 0.
	End(stripe uint64) (int64, error)
	// Remove drops a stripe's data.
	Remove(stripe uint64) error
}

// chunkSize is the allocation unit of the sparse in-memory store.
const chunkSize = 64 << 10

// MemStore is a sparse in-memory Store. It is safe for concurrent use:
// one RWMutex guards the stripe maps and every stripe's chunks. A chunk
// is allocated whole and cannot tell where the stripe's bytes end, so
// each stripe's end is kept beside its chunks, as a file keeps its
// length beside its blocks.
type MemStore struct {
	mu      sync.RWMutex
	stripes map[uint64]map[int64][]byte
	ends    map[uint64]int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{stripes: make(map[uint64]map[int64][]byte), ends: make(map[uint64]int64)}
}

// WriteAt implements Store.
func (m *MemStore) WriteAt(stripe uint64, off int64, data []byte) error {
	return m.WriteV(stripe, []Vec{{Off: off, Data: data}}, nil).Wait()
}

// WriteV implements Store. A chunk that does not exist yet and that an
// extent covers whole is made of the extent's bytes: a capacity-capped
// sub-slice of frame when keepFrame allows, a copy otherwise. A chunk
// that exists is copied into in place, and a partial first write gets a
// zeroed chunk.
func (m *MemStore) WriteV(stripe uint64, vec []Vec, frame []byte) Pending {
	for _, v := range vec {
		if v.Off < 0 {
			return Pending{err: fmt.Errorf("storage: negative offset %d", v.Off)}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	chunks := m.stripes[stripe]
	if chunks == nil {
		chunks = make(map[int64][]byte)
		m.stripes[stripe] = chunks
	}
	keep := frame != nil && keepFrame(newChunkBytes(chunks, vec), cap(frame))
	for _, v := range vec {
		if end := v.Off + int64(len(v.Data)); len(v.Data) > 0 && end > m.ends[stripe] {
			m.ends[stripe] = end
		}
		for off, data := v.Off, v.Data; len(data) > 0; {
			ci, co, n := chunkSpan(off, len(data))
			switch c := chunks[ci]; {
			case c != nil:
				copy(c[co:co+n], data[:n])
			case n == chunkSize && keep:
				chunks[ci] = data[:n:n]
			case n == chunkSize:
				chunks[ci] = bytes.Clone(data[:n])
			default:
				c = make([]byte, chunkSize)
				copy(c[co:co+n], data[:n])
				chunks[ci] = c
			}
			data = data[n:]
			off += n
		}
	}
	return Pending{kept: keep}
}

// chunkSpan splits the n bytes from off at the first chunk boundary: the
// chunk that holds off, off's position in it, and how many of the n
// bytes lie in that chunk.
func chunkSpan(off int64, n int) (ci, co, m int64) {
	ci, co = off/chunkSize, off%chunkSize
	return ci, co, min(int64(n), chunkSize-co)
}

// newChunkBytes counts the bytes of vec that would become chunks of
// their own: the runs that cover an absent chunk whole.
func newChunkBytes(chunks map[int64][]byte, vec []Vec) int64 {
	var total int64
	for _, v := range vec {
		for off, left := v.Off, len(v.Data); left > 0; {
			ci, _, n := chunkSpan(off, left)
			if n == chunkSize && chunks[ci] == nil {
				total += n
			}
			left -= int(n)
			off += n
		}
	}
	return total
}

// keepFrame is the rule for keeping a frame of capacity c as the storage
// of the n bytes of new chunks a write makes from it: the chunks must be
// at least 15/16 of the host memory the frame occupies, so keeping costs
// at most 1/16 more memory than copying — whatever else is in the frame
// stays reachable as long as any of its chunks. Go rounds an object over
// 32 KiB up to whole 8 KiB pages, so a one-chunk frame (64 KiB plus its
// headers, 72 KiB of pages) is copied.
func keepFrame(n int64, c int) bool {
	held := int64(c)
	if held > 32<<10 {
		held = (held + 8<<10 - 1) &^ (8<<10 - 1)
	}
	return n > 0 && n*16 >= held*15
}

// ReadAt implements Store.
func (m *MemStore) ReadAt(stripe uint64, off int64, buf []byte) error {
	if off < 0 {
		return fmt.Errorf("storage: negative offset %d", off)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	chunks := m.stripes[stripe]
	for len(buf) > 0 {
		ci, co, n := chunkSpan(off, len(buf))
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

// Truncate implements Store: it drops the chunks past size, zeroes the
// tail of the chunk size falls in and sets the end.
func (m *MemStore) Truncate(stripe uint64, size int64) error {
	if size < 0 {
		return fmt.Errorf("storage: negative size %d", size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ends[stripe] = size
	ci, co := size/chunkSize, size%chunkSize
	for i, c := range m.stripes[stripe] {
		switch {
		case i > ci || i == ci && co == 0:
			delete(m.stripes[stripe], i)
		case i == ci:
			clear(c[co:])
		}
	}
	return nil
}

// Remove implements Store.
func (m *MemStore) Remove(stripe uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.stripes, stripe)
	delete(m.ends, stripe)
	return nil
}

// End implements Store.
func (m *MemStore) End(stripe uint64) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ends[stripe], nil
}

// Bytes returns the number of bytes the store's chunks hold
// (tests/introspection). A chunk kept from a flush frame (keepFrame)
// also keeps the rest of that frame reachable — its headers and
// allocation slack, at most 1/16 of the frame — which Bytes does not
// count.
func (m *MemStore) Bytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, chunks := range m.stripes {
		n += int64(len(chunks)) * chunkSize
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

// WriteV implements Store as a loop of WriteAt, stopping at the first
// error. It never keeps frame.
func (f *FileStore) WriteV(stripe uint64, vec []Vec, _ []byte) Pending {
	for _, v := range vec {
		if err := f.WriteAt(stripe, v.Off, v.Data); err != nil {
			return Pending{err: err}
		}
	}
	return Pending{}
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

// Truncate implements Store: the stripe's file is cut or extended to
// size.
func (f *FileStore) Truncate(stripe uint64, size int64) error {
	fd, err := f.file(stripe)
	if err != nil {
		return err
	}
	return fd.Truncate(size)
}

// End implements Store: the stripe file's length, 0 if it does not
// exist.
func (f *FileStore) End(stripe uint64) (int64, error) {
	fi, err := os.Stat(filepath.Join(f.dir, fmt.Sprintf("stripe-%d", stripe)))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
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
