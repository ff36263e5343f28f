// Package meta implements the ccPFS namespace service. The paper's
// prototype delegates naming to an external file system (NFS or Lustre)
// and uses the inode number as the FID; this reproduction provides an
// equivalent in-process register: path → (FID, stripe layout). It keeps
// no size: a file's size is where its stripes end, and each stripe's
// storing data server knows its end (DESIGN.md §5).
package meta

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by the service.
var (
	ErrExists   = errors.New("meta: file exists")
	ErrNotFound = errors.New("meta: no such file")
)

// File describes one file.
type File struct {
	FID         uint64
	Path        string
	StripeSize  int64
	StripeCount uint32
}

// Service is the namespace register. It is safe for concurrent use.
type Service struct {
	mu      sync.Mutex
	byPath  map[string]*File
	byFID   map[uint64]*File
	nextFID uint64
}

// NewService returns an empty namespace.
func NewService() *Service {
	return &Service{
		byPath: make(map[string]*File),
		byFID:  make(map[uint64]*File),
	}
}

// Create registers a file with the given stripe layout.
func (s *Service) Create(path string, stripeSize int64, stripeCount uint32) (File, error) {
	if path == "" {
		return File{}, fmt.Errorf("meta: empty path")
	}
	if stripeSize <= 0 || stripeCount == 0 {
		return File{}, fmt.Errorf("meta: invalid layout %d x %d", stripeSize, stripeCount)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byPath[path]; ok {
		return File{}, ErrExists
	}
	s.nextFID++
	f := &File{
		FID:         s.nextFID,
		Path:        path,
		StripeSize:  stripeSize,
		StripeCount: stripeCount,
	}
	s.byPath[path] = f
	s.byFID[f.FID] = f
	return *f, nil
}

// Open returns a file by path.
func (s *Service) Open(path string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.byPath[path]
	if !ok {
		return File{}, ErrNotFound
	}
	return *f, nil
}

// Stat returns a file by FID.
func (s *Service) Stat(fid uint64) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.byFID[fid]
	if !ok {
		return File{}, ErrNotFound
	}
	return *f, nil
}

// Remove deletes a file from the namespace.
func (s *Service) Remove(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.byPath[path]
	if !ok {
		return ErrNotFound
	}
	delete(s.byPath, path)
	delete(s.byFID, f.FID)
	return nil
}

// List returns all paths (diagnostics and the CLI's ls).
func (s *Service) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byPath))
	for p := range s.byPath {
		out = append(out, p)
	}
	return out
}
