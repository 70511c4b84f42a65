//go:build amd64 && !purego

package audio

import (
	"debug/elf"
	"debug/gosym"
	"os"
	"testing"
)

// TestKernelIs64ByteAligned: acf16, acf32, acfNorm16 and acfNorm32 start on a
// 64-byte boundary in the linked image (the PCALIGN $64 at each entry), so
// unrelated code growing or shrinking cannot shift a loop across a fetch
// block — the 3–7 % wav-hot
// tilt PRs 25 and 28 traced to acf16 landing 32-byte aligned. The entry is
// read from the test binary's ELF line table (`go test` strips the symbol
// table, never .gopclntab); reflect would give the ABI wrapper's address,
// not the assembly body's.
func TestKernelIs64ByteAligned(t *testing.T) {
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
	for _, name := range []string{"warping/internal/audio.acf16", "warping/internal/audio.acf32",
		"warping/internal/audio.acfNorm16", "warping/internal/audio.acfNorm32"} {
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
