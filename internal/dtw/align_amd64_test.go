//go:build amd64 && !purego

package dtw

import (
	"debug/elf"
	"debug/gosym"
	"os"
	"testing"
)

// TestKernelsAre64ByteAligned: lbBlock16, lbBytes16, projBlock16 and
// envBytesPass start on a 64-byte boundary in the linked image (the PCALIGN $64 at their entry), so
// unrelated code growing or shrinking cannot move them across a fetch block.
// The entries are read from the test binary's ELF line table (`go test`
// strips the symbol table, never .gopclntab); reflect would give the ABI
// wrappers' addresses, not the assembly bodies'.
func TestKernelsAre64ByteAligned(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.Open(exe)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pcln, err := f.Section(".gopclntab").Data()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := gosym.NewTable(nil, gosym.NewLineTable(pcln, f.Section(".text").Addr))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"warping/internal/dtw.lbBlock16", "warping/internal/dtw.lbBytes16", "warping/internal/dtw.projBlock16", "warping/internal/dtw.envBytesPass"} {
		fn := tab.LookupFunc(name + ".abi0")
		if fn == nil {
			fn = tab.LookupFunc(name)
		}
		switch {
		case fn == nil:
			t.Errorf("%s not in the test binary's line table", name)
		case fn.Entry%64 != 0:
			t.Errorf("%s at %#x, %d bytes past a 64-byte boundary", fn.Name, fn.Entry, fn.Entry%64)
		}
	}
}
