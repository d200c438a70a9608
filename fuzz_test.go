package gkmeans

import (
	"bytes"
	"testing"
)

// FuzzReadIndexFrom hammers the .gkx container parser with mutated bytes.
// The contract under fuzzing is the same one TestReadIndexFromCorruptInputs
// checks pointwise: ReadIndexFrom either returns an error or an index whose
// accessors are safe to call and which re-serialises cleanly — it never
// panics and never allocates absurdly from a lying length field.
//
// CI runs this for a short budget: go test -fuzz=FuzzReadIndexFrom -fuzztime=20s .
func FuzzReadIndexFrom(f *testing.F) {
	// One v6 blob per state an Index can be in, then one golden file per
	// legacy layout (testdata/gkx, see persist_legacy_test.go); the committed
	// corpus under testdata/fuzz adds a v1 blob of its own.
	blobs := map[string][]byte{}
	for _, name := range gkxStates {
		blobs[name] = gkxBlob(f, gkxState(f, name))
		f.Add(blobs[name])
	}
	for _, fx := range legacyFixtures {
		blobs[fx.name] = gkxFixture(f, fx.name)
		f.Add(blobs[fx.name])
	}
	f.Add([]byte{})
	f.Add([]byte("GKXI"))
	corrupt := func(name string, mutate func(b []byte) []byte) {
		f.Add(mutate(bytes.Clone(blobs[name])))
	}
	// A valid prefix with a lying tail exercises the section-length checks.
	corrupt("mono", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("sharded", func(b []byte) []byte { b[gkxFlagsOff] ^= 0xff; return b })
	corrupt("sharded", func(b []byte) []byte { b[gkxSegsOff] ^= 0x03; return b })
	// Corrupt routing centroids: the trailer sits at the end of a routed
	// blob, so a late byte flip lands in the centroid data or its shape words.
	corrupt("routed", func(b []byte) []byte { b[len(b)-3] ^= 0xff; return b })
	corrupt("routed", func(b []byte) []byte { return b[:len(b)-7] }) // truncated routing trailer
	corrupt("clustered", func(b []byte) []byte { return b[:len(b)-7] })
	// A lying dtype word exercises the double-pinned dtype check (header flag
	// AND dtype word must agree), in v6 and in v5.
	corrupt("u8-mono", func(b []byte) []byte { b[gkxDtypeOff] ^= 0xff; return b })
	corrupt("v5-u8-routed-mutated", func(b []byte) []byte { b[gkxDtypeOff] ^= 0xff; return b })
	// The uint8 flag forced onto float blobs exercises the inverse check.
	corrupt("mono", func(b []byte) []byte { b[gkxFlagsOff] |= byte(flagU8); return b })
	corrupt("v1-mono-clustered", func(b []byte) []byte { b[gkxFlagsOff] |= byte(flagU8); return b })

	f.Fuzz(func(t *testing.T, b []byte) {
		idx, err := ReadIndexFrom(bytes.NewReader(b))
		if err != nil {
			return
		}
		// Accepted inputs must round-trip through the writer.
		if idx.N() < 0 || idx.Dim() < 0 {
			t.Fatalf("accepted index reports negative shape %d×%d", idx.N(), idx.Dim())
		}
		var out bytes.Buffer
		if _, err := idx.WriteTo(&out); err != nil {
			t.Fatalf("accepted index fails to re-serialise: %v", err)
		}
	})
}
