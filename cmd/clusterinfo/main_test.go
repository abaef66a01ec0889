package main

import (
	"bytes"
	"testing"
)

// TestTopologyDump pins the whole dump for two dual-Cell blades and one
// Xeon: the enumeration order of nodes, Cells and SPEs, each SPE's
// node-global index and the EA base of its mapped local store.
func TestTopologyDump(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-cells", "2", "-xeons", "1", "-cores", "2"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if got := stdout.String(); got != want {
		t.Fatalf("topology dump differs; got:\n%s\nwant:\n%s", got, want)
	}
}

const want = `cluster: 3 nodes, 32 SPEs total

node 0 cell0    arch=cell  cores=2 mem=64MB
  cell 0: PPE + 8 SPEs (EIB 25.6 GB/s)
    spe0  LS 256KB at EA 0x300000000
    spe1  LS 256KB at EA 0x300100000
    spe2  LS 256KB at EA 0x300200000
    spe3  LS 256KB at EA 0x300300000
    spe4  LS 256KB at EA 0x300400000
    spe5  LS 256KB at EA 0x300500000
    spe6  LS 256KB at EA 0x300600000
    spe7  LS 256KB at EA 0x300700000
  cell 1: PPE + 8 SPEs (EIB 25.6 GB/s)
    spe8  LS 256KB at EA 0x300800000
    spe9  LS 256KB at EA 0x300900000
    spe10 LS 256KB at EA 0x300a00000
    spe11 LS 256KB at EA 0x300b00000
    spe12 LS 256KB at EA 0x300c00000
    spe13 LS 256KB at EA 0x300d00000
    spe14 LS 256KB at EA 0x300e00000
    spe15 LS 256KB at EA 0x300f00000
node 1 cell1    arch=cell  cores=2 mem=64MB
  cell 0: PPE + 8 SPEs (EIB 25.6 GB/s)
    spe0  LS 256KB at EA 0x300000000
    spe1  LS 256KB at EA 0x300100000
    spe2  LS 256KB at EA 0x300200000
    spe3  LS 256KB at EA 0x300300000
    spe4  LS 256KB at EA 0x300400000
    spe5  LS 256KB at EA 0x300500000
    spe6  LS 256KB at EA 0x300600000
    spe7  LS 256KB at EA 0x300700000
  cell 1: PPE + 8 SPEs (EIB 25.6 GB/s)
    spe8  LS 256KB at EA 0x300800000
    spe9  LS 256KB at EA 0x300900000
    spe10 LS 256KB at EA 0x300a00000
    spe11 LS 256KB at EA 0x300b00000
    spe12 LS 256KB at EA 0x300c00000
    spe13 LS 256KB at EA 0x300d00000
    spe14 LS 256KB at EA 0x300e00000
    spe15 LS 256KB at EA 0x300f00000
node 2 xeon0    arch=x86   cores=2 mem=64MB

SPE local-store budget under each library:
  CellPilot runtime: 10336 bytes resident
  DaCS runtime:      36600 bytes resident
  LS map: base 0x300000000, stride 0x100000 per SPE
`
