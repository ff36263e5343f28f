package workload

import (
	"fmt"

	"ccpfs/internal/client"
	"ccpfs/internal/cluster"
)

// TileConfig parameterizes the Tile-IO workload (§V-D): a grid of
// TilesX × TilesY tiles stored in one shared file as a row-major 2-D
// array of pixels, with OverlapPx of overlap between neighbouring tiles.
// Each client writes one tile — TileDim non-contiguous row writes —
// atomically, and tiles of neighbouring clients overlap, which is what
// exercises atomic non-contiguous writes.
type TileConfig struct {
	TilesX, TilesY int
	// TileDim is the tile edge in pixels (the paper uses 20,480; scaled
	// runs use less).
	TileDim int
	// OverlapPx is the overlap between adjacent tiles (100 in the paper).
	OverlapPx int
	// ElementSize is bytes per pixel (4 in the paper).
	ElementSize int
	StripeSize  int64
	StripeCount uint32
}

// ArrayDim returns the global array dimensions in pixels.
func (cfg TileConfig) ArrayDim() (w, h int64) {
	step := int64(cfg.TileDim - cfg.OverlapPx)
	w = step*int64(cfg.TilesX-1) + int64(cfg.TileDim)
	h = step*int64(cfg.TilesY-1) + int64(cfg.TileDim)
	return w, h
}

// TileBytes returns the bytes one client writes.
func (cfg TileConfig) TileBytes() int64 {
	return int64(cfg.TileDim) * int64(cfg.TileDim) * int64(cfg.ElementSize)
}

// tileOps builds the non-contiguous write list for tile (tx, ty).
func (cfg TileConfig) tileOps(tx, ty int, fillByte byte) []client.WriteOp {
	w, _ := cfg.ArrayDim()
	step := int64(cfg.TileDim - cfg.OverlapPx)
	es := int64(cfg.ElementSize)
	rowBytes := int64(cfg.TileDim) * es
	x0 := step * int64(tx)
	y0 := step * int64(ty)
	ops := make([]client.WriteOp, 0, cfg.TileDim)
	row := make([]byte, rowBytes)
	for i := range row {
		row[i] = fillByte
	}
	for r := 0; r < cfg.TileDim; r++ {
		off := ((y0 + int64(r)) * w * es) + x0*es
		ops = append(ops, client.WriteOp{Off: off, Data: row})
	}
	return ops
}

// RunTileIO writes the full tile grid, one client per tile, each tile an
// atomic non-contiguous write batch. Under SeqDLM each client locks the
// minimum covering range per stripe; under DLM-datatype it locks the
// exact extent list (the §V-D comparison).
func RunTileIO(c *cluster.Cluster, cfg TileConfig) (Result, error) {
	n := cfg.TilesX * cfg.TilesY
	s, err := open(c, n, "tile", cfg.StripeSize, cfg.StripeCount, shared("/tile"))
	if err != nil {
		return Result{}, err
	}
	defer s.close()

	res := Result{Ops: int64(n), Bytes: int64(n) * cfg.TileBytes()}
	err = s.run(&res, func() error {
		return s.parallel(n, func(i int) error {
			ops := cfg.tileOps(i%cfg.TilesX, i/cfg.TilesX, byte(i+1))
			if err := s.files[i].WriteMulti(ops); err != nil {
				return fmt.Errorf("tile %d: %w", i, err)
			}
			return nil
		})
	})
	return res, err
}
