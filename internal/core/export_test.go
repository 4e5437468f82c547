package core

// StoreFIFO exposes the heap-store FIFO to the external tests.
type StoreFIFO = storeFIFO

func NewStoreFIFO(lines int) *StoreFIFO { return newStoreFIFO(lines) }

func (f *storeFIFO) Record(addr uint32, ts int64) { f.record(addr, ts) }

func (f *storeFIFO) Lookup(addr uint32) (int64, bool) { return f.lookup(addr) }
