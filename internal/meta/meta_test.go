package meta

import (
	"errors"
	"testing"
)

func TestCreateOpenStat(t *testing.T) {
	s := NewService()
	f, err := s.Create("/a", 1<<20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f.FID == 0 || f.StripeCount != 4 || f.StripeSize != 1<<20 {
		t.Fatalf("created = %+v", f)
	}
	g, err := s.Open("/a")
	if err != nil || g != f {
		t.Fatalf("Open = %+v, %v", g, err)
	}
	h, err := s.Stat(f.FID)
	if err != nil || h != f {
		t.Fatalf("Stat = %+v, %v", h, err)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	s := NewService()
	s.Create("/a", 4096, 1)
	if _, err := s.Create("/a", 4096, 1); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestCreateValidation(t *testing.T) {
	s := NewService()
	if _, err := s.Create("", 4096, 1); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, err := s.Create("/b", 0, 1); err == nil {
		t.Fatal("zero stripe size accepted")
	}
	if _, err := s.Create("/b", 4096, 0); err == nil {
		t.Fatal("zero stripe count accepted")
	}
}

func TestOpenMissing(t *testing.T) {
	s := NewService()
	if _, err := s.Open("/nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Stat(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestRemove(t *testing.T) {
	s := NewService()
	f, _ := s.Create("/a", 4096, 1)
	if err := s.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("/a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("file survived Remove")
	}
	if _, err := s.Stat(f.FID); !errors.Is(err, ErrNotFound) {
		t.Fatal("FID survived Remove")
	}
	if err := s.Remove("/a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("double remove succeeded")
	}
}

func TestList(t *testing.T) {
	s := NewService()
	s.Create("/a", 4096, 1)
	s.Create("/b", 4096, 1)
	if got := s.List(); len(got) != 2 {
		t.Fatalf("List = %v", got)
	}
}

func TestFIDsAreUnique(t *testing.T) {
	s := NewService()
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		f, err := s.Create(string(rune('a'+i%26))+string(rune('0'+i/26)), 4096, 1)
		if err != nil {
			t.Fatal(err)
		}
		if seen[f.FID] {
			t.Fatalf("duplicate FID %d", f.FID)
		}
		seen[f.FID] = true
	}
}
