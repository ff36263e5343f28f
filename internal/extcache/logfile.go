package extcache

// This file adds durable extent logs: the in-memory per-stripe log of
// §IV-B/§IV-C2 serialized to an append-only file so a data server that
// really restarts (new process, same data directory) can rebuild its
// extent cache. Records are fixed-size little-endian with a per-record
// checksum; a torn tail (crash mid-append) is detected and truncated at
// replay.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ccpfs/internal/extent"
)

// logMagic guards against replaying a foreign file.
const logMagic = 0x53514c47 // "SQLG"

// logRecordSize is the on-disk record size: stripe, start, end, sn,
// checksum.
const logRecordSize = 8 + 8 + 8 + 8 + 4

// LogFile is an append-only durable extent log for all stripes of one
// data server.
type LogFile struct {
	mu sync.Mutex
	f  *os.File
}

// OpenLogFile opens (creating if needed) the extent log in dir.
func OpenLogFile(dir string) (*LogFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "extent.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:4], logMagic)
		binary.LittleEndian.PutUint32(hdr[4:], 1) // version
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &LogFile{f: f}, nil
}

func checksum(rec []byte) uint32 {
	// FNV-1a over the record body.
	h := uint32(2166136261)
	for _, b := range rec {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// Append durably records the update-set entries of a flushed write.
func (l *LogFile) Append(stripe uint64, ents []extent.SNExtent) error {
	if len(ents) == 0 {
		return nil
	}
	buf := make([]byte, 0, len(ents)*logRecordSize)
	for _, e := range ents {
		var rec [logRecordSize]byte
		binary.LittleEndian.PutUint64(rec[0:], stripe)
		binary.LittleEndian.PutUint64(rec[8:], uint64(e.Start))
		binary.LittleEndian.PutUint64(rec[16:], uint64(e.End))
		binary.LittleEndian.PutUint64(rec[24:], e.SN)
		binary.LittleEndian.PutUint32(rec[32:], checksum(rec[:32]))
		buf = append(buf, rec[:]...)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err := l.f.Write(buf)
	return err
}

// Sync flushes the log to stable storage.
func (l *LogFile) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync()
}

// Close closes the log.
func (l *LogFile) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Truncate discards the log contents (after a forced synchronization
// made every entry redundant, §IV-B).
func (l *LogFile) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(8); err != nil {
		return err
	}
	_, err := l.f.Seek(0, io.SeekEnd)
	return err
}

// ReadAll replays the log, returning entries grouped by stripe in append
// order. A corrupt or torn tail ends the replay at the last good record.
func (l *LogFile) ReadAll() (map[uint64][]extent.SNExtent, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	var hdr [8]byte
	if _, err := io.ReadFull(l.f, hdr[:]); err != nil {
		return nil, fmt.Errorf("extcache: log header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != logMagic {
		return nil, fmt.Errorf("extcache: not an extent log")
	}
	out := make(map[uint64][]extent.SNExtent)
	var rec [logRecordSize]byte
	for {
		if _, err := io.ReadFull(l.f, rec[:]); err != nil {
			break // EOF or torn tail: stop at the last good record
		}
		if binary.LittleEndian.Uint32(rec[32:]) != checksum(rec[:32]) {
			break
		}
		stripe := binary.LittleEndian.Uint64(rec[0:])
		e := extent.SNExtent{
			Extent: extent.Extent{
				Start: int64(binary.LittleEndian.Uint64(rec[8:])),
				End:   int64(binary.LittleEndian.Uint64(rec[16:])),
			},
			SN: binary.LittleEndian.Uint64(rec[24:]),
		}
		if e.Empty() {
			break
		}
		out[stripe] = append(out[stripe], e)
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return nil, err
	}
	return out, nil
}

// AttachLogFile mirrors every Apply's update set into the durable log,
// which then replaces the in-memory one: the cache keeps no log of its
// own (Log returns nothing), so a long-running server's memory does not
// grow with every flush. Call it once, right after New and before
// ReplayLogFile or any concurrent use: the fields are read without
// synchronization on the flush hot path.
func (c *Cache) AttachLogFile(lf *LogFile) {
	c.logFile = lf
	c.logging = false
}

// ReplayLogFile rebuilds the cache from a durable log (server restart).
func (c *Cache) ReplayLogFile(lf *LogFile) error {
	byStripe, err := lf.ReadAll()
	if err != nil {
		return err
	}
	// Deterministic stripe order keeps replay reproducible.
	stripes := make([]uint64, 0, len(byStripe))
	for s := range byStripe {
		stripes = append(stripes, s)
	}
	sort.Slice(stripes, func(i, j int) bool { return stripes[i] < stripes[j] })
	for _, s := range stripes {
		c.Replay(s, byStripe[s])
	}
	return nil
}
