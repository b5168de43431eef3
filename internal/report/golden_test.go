package report

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
)

// goldenRow is one Table I row with every float64 field as its bits.
type goldenRow struct {
	impl                               string
	cores                              int
	seconds, pixPerSec, speedup, power uint64
}

// smallTable1 is RunTable1(Small()) exact to the bit: rows in Table I
// order (FFBP, then autofocus), the two energy ratios, and the SHA-256 of
// the JSON encoding of both metric snapshots. JSON prints each float64 in
// its shortest round-trip form, so equal hashes mean equal bits.
var smallTable1 = struct {
	rows                   [6]goldenRow
	ffbpRatio, afRatio     uint64
	ffbpMetrics, afMetrics string
}{
	rows: [6]goldenRow{
		{"Sequential on Intel i7", 1, 0x3f9ad21e9b230b69, 0x4132b7823e282759, 0x3ff0000000000000, 0x4031800000000000},
		{"Sequential on Epiphany", 1, 0x3fb4bbe44fd3db67, 0x41183624935a297c, 0x3fd4b27476324c0a, 0x4000000000000000},
		{"Parallel on Epiphany", 16, 0x3f7714aac31ddd9d, 0x4155bfef45d28987, 0x401297b9675be2f2, 0x4000000000000000},
		{"Sequential on Intel i7", 1, 0x3f186eba22bc4e38, 0x4187933baca5ffc8, 0x3ff0000000000000, 0x4031800000000000},
		{"Sequential on Epiphany", 1, 0x3f24c93ac6fb519a, 0x417bb5fcc99f83c5, 0x3fe2ce8e8ab787a3, 0x4000000000000000},
		{"Parallel on Epiphany", 13, 0x3ef087e28cfd7ef1, 0x41b16c09be3beb8a, 0x4017a5e39ac171d3, 0x4000000000000000},
	},
	ffbpRatio:   0x404455f2c90c8038,
	afRatio:     0x4049dd70f143947f,
	ffbpMetrics: "3dcb5383dad341b0c4d18ce694d1f5dc424c7ba4c80bc89ed1b1993fb831966b",
	afMetrics:   "7124fa4e74b4da8c6e5272d3885cfaa07d607e284163a5082f66c38301db9b8a",
}

// TestTable1SmallGolden pins every field RunTable1 computes at Small():
// a change that moves any bit of any row, ratio or metric is a model
// change.
func TestTable1SmallGolden(t *testing.T) {
	tab, err := RunTable1(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	want := smallTable1
	rows := append(tab.FFBP[:], tab.Autofocus[:]...)
	for i, r := range rows {
		got := goldenRow{r.Impl, r.Cores, math.Float64bits(r.Seconds), math.Float64bits(r.PixPerSec),
			math.Float64bits(r.Speedup), math.Float64bits(r.PowerW)}
		if got != want.rows[i] {
			t.Errorf("row %d = %+v\nwant      %+v", i, got, want.rows[i])
		}
	}
	if got := math.Float64bits(tab.FFBPEnergyRatio); got != want.ffbpRatio {
		t.Errorf("FFBP energy ratio bits %#x, want %#x", got, want.ffbpRatio)
	}
	if got := math.Float64bits(tab.AutofocusEnergyRatio); got != want.afRatio {
		t.Errorf("autofocus energy ratio bits %#x, want %#x", got, want.afRatio)
	}
	for _, c := range []struct {
		name string
		snap any
		want string
	}{{"FFBP", tab.FFBPMetrics, want.ffbpMetrics}, {"autofocus", tab.AutofocusMetrics, want.afMetrics}} {
		b, err := json.Marshal(c.snap)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != c.want {
			t.Errorf("%s metrics snapshot SHA-256 %x, want %s", c.name, sum, c.want)
		}
	}
}
