package jrpm_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"jrpm"
	"jrpm/internal/corpus"
	"jrpm/internal/workloads"
)

// wirePins are the trace layer's outputs for four paper kernels and one
// default-corpus program, as FORMAT.md version 1 produces them: the hex
// ProgramHash of each annotated program and the SHA-256 of the bytes
// ProfileRecord writes. Recorded traces and the cluster's trace keys are
// only valid while these hold, so a change to either is a format change
// and needs a version bump, not new constants.
var wirePins = []struct {
	name      string
	scale     float64
	progHash  string
	traceSHA  string
	traceSize int
}{
	{"Huffman", 1,
		"2c710abbdb9c0b569d7d07ca1b177b43da9f012a4c024360f18e423bc9b163ce",
		"a4005949675aa2780dcf52e3371ae2dd0df3135eb782e807a6e31e4982415db3", 565887},
	{"compress", 1,
		"368d1408ef5f9590a4d19601f3dde6e197206b73a5253e16cf8839c51373569c",
		"50cf00cb441a65a0f32f0c9ee00e31c15cdbebd47ec94c353ca6a1c12a891dd6", 438626},
	{"fft", equivScale,
		"e98162bc9407020b96518fa4bfbf0b100b491adbda74b90c0b82f66488e6c11d",
		"917d0c2428ea768ca16338672b4de701a5e1d3c1adf579e72e1ac6543d718988", 19268},
	{"mpegVideo", equivScale,
		"cfda567f95508f895bfdd1a399031e9791f6b543d46041819ee0a61c6f13bc9a",
		"efb52054a2b5846cd7e7413c57e4bb341f422d92598eb9219f9e400acffc955c", 88039},
}

// wireCorpusPin pins the same two digests for one default-corpus program.
var wireCorpusPin = struct {
	index     int
	progHash  string
	traceSHA  string
	traceSize int
}{137,
	"c265ea7cc6c1be6f0cd56aa52352a209d8f6e776d9e13cdbd77a251e2ce989bd",
	"0ca96444a931ef028420852df9f125de59776509ab223ac1febd2e830fe827c0", 9250}

func TestWireFormatPinned(t *testing.T) {
	opts := jrpm.DefaultOptions()
	check := func(t *testing.T, src string, in jrpm.Input, progHash, traceSHA string, traceSize int) {
		t.Helper()
		c, err := jrpm.Compile(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		h := c.TraceHash()
		var buf bytes.Buffer
		if _, err := c.ProfileRecord(context.Background(), in, opts, &buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		gotHash, gotSHA := hex.EncodeToString(h[:]), hex.EncodeToString(sum[:])
		if gotHash != progHash {
			t.Errorf("ProgramHash = %s, want %s", gotHash, progHash)
		}
		if gotSHA != traceSHA || buf.Len() != traceSize {
			t.Errorf("trace: %d bytes, SHA-256 %s; want %d bytes, %s", buf.Len(), gotSHA, traceSize, traceSHA)
		}
	}
	for _, p := range wirePins {
		t.Run(p.name, func(t *testing.T) {
			w, err := workloads.ByName(p.name)
			if err != nil {
				t.Fatal(err)
			}
			check(t, w.Source, w.NewInput(p.scale), p.progHash, p.traceSHA, p.traceSize)
		})
	}
	t.Run("corpus", func(t *testing.T) {
		_, progs, err := corpus.Compile(corpus.DefaultSpec())
		if err != nil {
			t.Fatal(err)
		}
		p := progs[wireCorpusPin.index]
		check(t, p.Source, p.Input(), wireCorpusPin.progHash, wireCorpusPin.traceSHA, wireCorpusPin.traceSize)
	})
}
