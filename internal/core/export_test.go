package core

import (
	"jrpm/internal/hydra"
	"jrpm/internal/tir"
)

// StoreFIFO exposes the heap-store FIFO to the external tests.
type StoreFIFO = storeFIFO

func NewStoreFIFO(lines int) *StoreFIFO { return &storeFIFO{cap: lines} }

func (f *storeFIFO) Record(addr uint32, ts int64) { f.record(addr, ts) }

func (f *storeFIFO) Lookup(addr uint32) (int64, bool) { return f.lookup(addr) }

// RefTracer is the single-config reference model.
type RefTracer = refTracer

func NewRefTracer(prog *tir.Program, cfg hydra.Config, opts Options) *RefTracer {
	return newRefTracer(prog, cfg, opts)
}
