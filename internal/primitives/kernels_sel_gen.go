// Code generated by gen/main.go. DO NOT EDIT.

// Selection-vector variants and the exported per-width kernel entry
// points. Sel paths gather through data-dependent positions, so they stay
// plain predicated loops; the dense fast paths live in
// kernels_dense_gen.go. Every exported kernel picks the path itself, so
// callers pass sel (possibly nil) straight through.

package primitives

func selectLTColValSelU8(res []int32, in []uint8, v uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] < v)
	}
	return k
}

// SelectLTColValU8 writes the positions i (or sel entries) where
// in[i] < v holds into res and returns how many matched.
func SelectLTColValU8(res []int32, in []uint8, v uint8, sel []int32) int {
	if sel == nil {
		return selectLTColValDenseU8(res, in, v)
	}
	return selectLTColValSelU8(res, in, v, sel)
}

func selectLTColColSelU8(res []int32, a, b []uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] < b[i])
	}
	return k
}

// SelectLTColColU8 writes the positions where a[i] < b[i] holds into
// res and returns how many matched.
func SelectLTColColU8(res []int32, a, b []uint8, sel []int32) int {
	if sel == nil {
		return selectLTColColDenseU8(res, a, b)
	}
	return selectLTColColSelU8(res, a, b, sel)
}

func selectLEColValSelU8(res []int32, in []uint8, v uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] <= v)
	}
	return k
}

// SelectLEColValU8 writes the positions i (or sel entries) where
// in[i] <= v holds into res and returns how many matched.
func SelectLEColValU8(res []int32, in []uint8, v uint8, sel []int32) int {
	if sel == nil {
		return selectLEColValDenseU8(res, in, v)
	}
	return selectLEColValSelU8(res, in, v, sel)
}

func selectLEColColSelU8(res []int32, a, b []uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] <= b[i])
	}
	return k
}

// SelectLEColColU8 writes the positions where a[i] <= b[i] holds into
// res and returns how many matched.
func SelectLEColColU8(res []int32, a, b []uint8, sel []int32) int {
	if sel == nil {
		return selectLEColColDenseU8(res, a, b)
	}
	return selectLEColColSelU8(res, a, b, sel)
}

func selectGTColValSelU8(res []int32, in []uint8, v uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] > v)
	}
	return k
}

// SelectGTColValU8 writes the positions i (or sel entries) where
// in[i] > v holds into res and returns how many matched.
func SelectGTColValU8(res []int32, in []uint8, v uint8, sel []int32) int {
	if sel == nil {
		return selectGTColValDenseU8(res, in, v)
	}
	return selectGTColValSelU8(res, in, v, sel)
}

func selectGTColColSelU8(res []int32, a, b []uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] > b[i])
	}
	return k
}

// SelectGTColColU8 writes the positions where a[i] > b[i] holds into
// res and returns how many matched.
func SelectGTColColU8(res []int32, a, b []uint8, sel []int32) int {
	if sel == nil {
		return selectGTColColDenseU8(res, a, b)
	}
	return selectGTColColSelU8(res, a, b, sel)
}

func selectGEColValSelU8(res []int32, in []uint8, v uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] >= v)
	}
	return k
}

// SelectGEColValU8 writes the positions i (or sel entries) where
// in[i] >= v holds into res and returns how many matched.
func SelectGEColValU8(res []int32, in []uint8, v uint8, sel []int32) int {
	if sel == nil {
		return selectGEColValDenseU8(res, in, v)
	}
	return selectGEColValSelU8(res, in, v, sel)
}

func selectGEColColSelU8(res []int32, a, b []uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] >= b[i])
	}
	return k
}

// SelectGEColColU8 writes the positions where a[i] >= b[i] holds into
// res and returns how many matched.
func SelectGEColColU8(res []int32, a, b []uint8, sel []int32) int {
	if sel == nil {
		return selectGEColColDenseU8(res, a, b)
	}
	return selectGEColColSelU8(res, a, b, sel)
}

func selectEQColValSelU8(res []int32, in []uint8, v uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] == v)
	}
	return k
}

// SelectEQColValU8 writes the positions i (or sel entries) where
// in[i] == v holds into res and returns how many matched.
func SelectEQColValU8(res []int32, in []uint8, v uint8, sel []int32) int {
	if sel == nil {
		return selectEQColValDenseU8(res, in, v)
	}
	return selectEQColValSelU8(res, in, v, sel)
}

func selectEQColColSelU8(res []int32, a, b []uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] == b[i])
	}
	return k
}

// SelectEQColColU8 writes the positions where a[i] == b[i] holds into
// res and returns how many matched.
func SelectEQColColU8(res []int32, a, b []uint8, sel []int32) int {
	if sel == nil {
		return selectEQColColDenseU8(res, a, b)
	}
	return selectEQColColSelU8(res, a, b, sel)
}

func selectNEColValSelU8(res []int32, in []uint8, v uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] != v)
	}
	return k
}

// SelectNEColValU8 writes the positions i (or sel entries) where
// in[i] != v holds into res and returns how many matched.
func SelectNEColValU8(res []int32, in []uint8, v uint8, sel []int32) int {
	if sel == nil {
		return selectNEColValDenseU8(res, in, v)
	}
	return selectNEColValSelU8(res, in, v, sel)
}

func selectNEColColSelU8(res []int32, a, b []uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] != b[i])
	}
	return k
}

// SelectNEColColU8 writes the positions where a[i] != b[i] holds into
// res and returns how many matched.
func SelectNEColColU8(res []int32, a, b []uint8, sel []int32) int {
	if sel == nil {
		return selectNEColColDenseU8(res, a, b)
	}
	return selectNEColColSelU8(res, a, b, sel)
}

func selectBetweenColValSelU8(res []int32, in []uint8, lo, hi uint8, sel []int32) int {
	k := 0
	for _, i := range sel {
		x := in[i]
		res[k] = i
		k += b2i(x >= lo && x <= hi)
	}
	return k
}

// SelectBetweenColValU8 writes the positions where lo <= in[i] <= hi
// holds into res and returns how many matched.
func SelectBetweenColValU8(res []int32, in []uint8, lo, hi uint8, sel []int32) int {
	if sel == nil {
		return selectBetweenColValDenseU8(res, in, lo, hi)
	}
	return selectBetweenColValSelU8(res, in, lo, hi, sel)
}

func selectLTColValSelU16(res []int32, in []uint16, v uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] < v)
	}
	return k
}

// SelectLTColValU16 writes the positions i (or sel entries) where
// in[i] < v holds into res and returns how many matched.
func SelectLTColValU16(res []int32, in []uint16, v uint16, sel []int32) int {
	if sel == nil {
		return selectLTColValDenseU16(res, in, v)
	}
	return selectLTColValSelU16(res, in, v, sel)
}

func selectLTColColSelU16(res []int32, a, b []uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] < b[i])
	}
	return k
}

// SelectLTColColU16 writes the positions where a[i] < b[i] holds into
// res and returns how many matched.
func SelectLTColColU16(res []int32, a, b []uint16, sel []int32) int {
	if sel == nil {
		return selectLTColColDenseU16(res, a, b)
	}
	return selectLTColColSelU16(res, a, b, sel)
}

func selectLEColValSelU16(res []int32, in []uint16, v uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] <= v)
	}
	return k
}

// SelectLEColValU16 writes the positions i (or sel entries) where
// in[i] <= v holds into res and returns how many matched.
func SelectLEColValU16(res []int32, in []uint16, v uint16, sel []int32) int {
	if sel == nil {
		return selectLEColValDenseU16(res, in, v)
	}
	return selectLEColValSelU16(res, in, v, sel)
}

func selectLEColColSelU16(res []int32, a, b []uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] <= b[i])
	}
	return k
}

// SelectLEColColU16 writes the positions where a[i] <= b[i] holds into
// res and returns how many matched.
func SelectLEColColU16(res []int32, a, b []uint16, sel []int32) int {
	if sel == nil {
		return selectLEColColDenseU16(res, a, b)
	}
	return selectLEColColSelU16(res, a, b, sel)
}

func selectGTColValSelU16(res []int32, in []uint16, v uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] > v)
	}
	return k
}

// SelectGTColValU16 writes the positions i (or sel entries) where
// in[i] > v holds into res and returns how many matched.
func SelectGTColValU16(res []int32, in []uint16, v uint16, sel []int32) int {
	if sel == nil {
		return selectGTColValDenseU16(res, in, v)
	}
	return selectGTColValSelU16(res, in, v, sel)
}

func selectGTColColSelU16(res []int32, a, b []uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] > b[i])
	}
	return k
}

// SelectGTColColU16 writes the positions where a[i] > b[i] holds into
// res and returns how many matched.
func SelectGTColColU16(res []int32, a, b []uint16, sel []int32) int {
	if sel == nil {
		return selectGTColColDenseU16(res, a, b)
	}
	return selectGTColColSelU16(res, a, b, sel)
}

func selectGEColValSelU16(res []int32, in []uint16, v uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] >= v)
	}
	return k
}

// SelectGEColValU16 writes the positions i (or sel entries) where
// in[i] >= v holds into res and returns how many matched.
func SelectGEColValU16(res []int32, in []uint16, v uint16, sel []int32) int {
	if sel == nil {
		return selectGEColValDenseU16(res, in, v)
	}
	return selectGEColValSelU16(res, in, v, sel)
}

func selectGEColColSelU16(res []int32, a, b []uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] >= b[i])
	}
	return k
}

// SelectGEColColU16 writes the positions where a[i] >= b[i] holds into
// res and returns how many matched.
func SelectGEColColU16(res []int32, a, b []uint16, sel []int32) int {
	if sel == nil {
		return selectGEColColDenseU16(res, a, b)
	}
	return selectGEColColSelU16(res, a, b, sel)
}

func selectEQColValSelU16(res []int32, in []uint16, v uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] == v)
	}
	return k
}

// SelectEQColValU16 writes the positions i (or sel entries) where
// in[i] == v holds into res and returns how many matched.
func SelectEQColValU16(res []int32, in []uint16, v uint16, sel []int32) int {
	if sel == nil {
		return selectEQColValDenseU16(res, in, v)
	}
	return selectEQColValSelU16(res, in, v, sel)
}

func selectEQColColSelU16(res []int32, a, b []uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] == b[i])
	}
	return k
}

// SelectEQColColU16 writes the positions where a[i] == b[i] holds into
// res and returns how many matched.
func SelectEQColColU16(res []int32, a, b []uint16, sel []int32) int {
	if sel == nil {
		return selectEQColColDenseU16(res, a, b)
	}
	return selectEQColColSelU16(res, a, b, sel)
}

func selectNEColValSelU16(res []int32, in []uint16, v uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] != v)
	}
	return k
}

// SelectNEColValU16 writes the positions i (or sel entries) where
// in[i] != v holds into res and returns how many matched.
func SelectNEColValU16(res []int32, in []uint16, v uint16, sel []int32) int {
	if sel == nil {
		return selectNEColValDenseU16(res, in, v)
	}
	return selectNEColValSelU16(res, in, v, sel)
}

func selectNEColColSelU16(res []int32, a, b []uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] != b[i])
	}
	return k
}

// SelectNEColColU16 writes the positions where a[i] != b[i] holds into
// res and returns how many matched.
func SelectNEColColU16(res []int32, a, b []uint16, sel []int32) int {
	if sel == nil {
		return selectNEColColDenseU16(res, a, b)
	}
	return selectNEColColSelU16(res, a, b, sel)
}

func selectBetweenColValSelU16(res []int32, in []uint16, lo, hi uint16, sel []int32) int {
	k := 0
	for _, i := range sel {
		x := in[i]
		res[k] = i
		k += b2i(x >= lo && x <= hi)
	}
	return k
}

// SelectBetweenColValU16 writes the positions where lo <= in[i] <= hi
// holds into res and returns how many matched.
func SelectBetweenColValU16(res []int32, in []uint16, lo, hi uint16, sel []int32) int {
	if sel == nil {
		return selectBetweenColValDenseU16(res, in, lo, hi)
	}
	return selectBetweenColValSelU16(res, in, lo, hi, sel)
}

func selectLTColValSelI32(res []int32, in []int32, v int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] < v)
	}
	return k
}

// SelectLTColValI32 writes the positions i (or sel entries) where
// in[i] < v holds into res and returns how many matched.
func SelectLTColValI32(res []int32, in []int32, v int32, sel []int32) int {
	if sel == nil {
		return selectLTColValDenseI32(res, in, v)
	}
	return selectLTColValSelI32(res, in, v, sel)
}

func selectLTColColSelI32(res []int32, a, b []int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] < b[i])
	}
	return k
}

// SelectLTColColI32 writes the positions where a[i] < b[i] holds into
// res and returns how many matched.
func SelectLTColColI32(res []int32, a, b []int32, sel []int32) int {
	if sel == nil {
		return selectLTColColDenseI32(res, a, b)
	}
	return selectLTColColSelI32(res, a, b, sel)
}

func selectLEColValSelI32(res []int32, in []int32, v int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] <= v)
	}
	return k
}

// SelectLEColValI32 writes the positions i (or sel entries) where
// in[i] <= v holds into res and returns how many matched.
func SelectLEColValI32(res []int32, in []int32, v int32, sel []int32) int {
	if sel == nil {
		return selectLEColValDenseI32(res, in, v)
	}
	return selectLEColValSelI32(res, in, v, sel)
}

func selectLEColColSelI32(res []int32, a, b []int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] <= b[i])
	}
	return k
}

// SelectLEColColI32 writes the positions where a[i] <= b[i] holds into
// res and returns how many matched.
func SelectLEColColI32(res []int32, a, b []int32, sel []int32) int {
	if sel == nil {
		return selectLEColColDenseI32(res, a, b)
	}
	return selectLEColColSelI32(res, a, b, sel)
}

func selectGTColValSelI32(res []int32, in []int32, v int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] > v)
	}
	return k
}

// SelectGTColValI32 writes the positions i (or sel entries) where
// in[i] > v holds into res and returns how many matched.
func SelectGTColValI32(res []int32, in []int32, v int32, sel []int32) int {
	if sel == nil {
		return selectGTColValDenseI32(res, in, v)
	}
	return selectGTColValSelI32(res, in, v, sel)
}

func selectGTColColSelI32(res []int32, a, b []int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] > b[i])
	}
	return k
}

// SelectGTColColI32 writes the positions where a[i] > b[i] holds into
// res and returns how many matched.
func SelectGTColColI32(res []int32, a, b []int32, sel []int32) int {
	if sel == nil {
		return selectGTColColDenseI32(res, a, b)
	}
	return selectGTColColSelI32(res, a, b, sel)
}

func selectGEColValSelI32(res []int32, in []int32, v int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] >= v)
	}
	return k
}

// SelectGEColValI32 writes the positions i (or sel entries) where
// in[i] >= v holds into res and returns how many matched.
func SelectGEColValI32(res []int32, in []int32, v int32, sel []int32) int {
	if sel == nil {
		return selectGEColValDenseI32(res, in, v)
	}
	return selectGEColValSelI32(res, in, v, sel)
}

func selectGEColColSelI32(res []int32, a, b []int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] >= b[i])
	}
	return k
}

// SelectGEColColI32 writes the positions where a[i] >= b[i] holds into
// res and returns how many matched.
func SelectGEColColI32(res []int32, a, b []int32, sel []int32) int {
	if sel == nil {
		return selectGEColColDenseI32(res, a, b)
	}
	return selectGEColColSelI32(res, a, b, sel)
}

func selectEQColValSelI32(res []int32, in []int32, v int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] == v)
	}
	return k
}

// SelectEQColValI32 writes the positions i (or sel entries) where
// in[i] == v holds into res and returns how many matched.
func SelectEQColValI32(res []int32, in []int32, v int32, sel []int32) int {
	if sel == nil {
		return selectEQColValDenseI32(res, in, v)
	}
	return selectEQColValSelI32(res, in, v, sel)
}

func selectEQColColSelI32(res []int32, a, b []int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] == b[i])
	}
	return k
}

// SelectEQColColI32 writes the positions where a[i] == b[i] holds into
// res and returns how many matched.
func SelectEQColColI32(res []int32, a, b []int32, sel []int32) int {
	if sel == nil {
		return selectEQColColDenseI32(res, a, b)
	}
	return selectEQColColSelI32(res, a, b, sel)
}

func selectNEColValSelI32(res []int32, in []int32, v int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] != v)
	}
	return k
}

// SelectNEColValI32 writes the positions i (or sel entries) where
// in[i] != v holds into res and returns how many matched.
func SelectNEColValI32(res []int32, in []int32, v int32, sel []int32) int {
	if sel == nil {
		return selectNEColValDenseI32(res, in, v)
	}
	return selectNEColValSelI32(res, in, v, sel)
}

func selectNEColColSelI32(res []int32, a, b []int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] != b[i])
	}
	return k
}

// SelectNEColColI32 writes the positions where a[i] != b[i] holds into
// res and returns how many matched.
func SelectNEColColI32(res []int32, a, b []int32, sel []int32) int {
	if sel == nil {
		return selectNEColColDenseI32(res, a, b)
	}
	return selectNEColColSelI32(res, a, b, sel)
}

func selectBetweenColValSelI32(res []int32, in []int32, lo, hi int32, sel []int32) int {
	k := 0
	for _, i := range sel {
		x := in[i]
		res[k] = i
		k += b2i(x >= lo && x <= hi)
	}
	return k
}

// SelectBetweenColValI32 writes the positions where lo <= in[i] <= hi
// holds into res and returns how many matched.
func SelectBetweenColValI32(res []int32, in []int32, lo, hi int32, sel []int32) int {
	if sel == nil {
		return selectBetweenColValDenseI32(res, in, lo, hi)
	}
	return selectBetweenColValSelI32(res, in, lo, hi, sel)
}

func selectLTColValSelI64(res []int32, in []int64, v int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] < v)
	}
	return k
}

// SelectLTColValI64 writes the positions i (or sel entries) where
// in[i] < v holds into res and returns how many matched.
func SelectLTColValI64(res []int32, in []int64, v int64, sel []int32) int {
	if sel == nil {
		return selectLTColValDenseI64(res, in, v)
	}
	return selectLTColValSelI64(res, in, v, sel)
}

func selectLTColColSelI64(res []int32, a, b []int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] < b[i])
	}
	return k
}

// SelectLTColColI64 writes the positions where a[i] < b[i] holds into
// res and returns how many matched.
func SelectLTColColI64(res []int32, a, b []int64, sel []int32) int {
	if sel == nil {
		return selectLTColColDenseI64(res, a, b)
	}
	return selectLTColColSelI64(res, a, b, sel)
}

func selectLEColValSelI64(res []int32, in []int64, v int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] <= v)
	}
	return k
}

// SelectLEColValI64 writes the positions i (or sel entries) where
// in[i] <= v holds into res and returns how many matched.
func SelectLEColValI64(res []int32, in []int64, v int64, sel []int32) int {
	if sel == nil {
		return selectLEColValDenseI64(res, in, v)
	}
	return selectLEColValSelI64(res, in, v, sel)
}

func selectLEColColSelI64(res []int32, a, b []int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] <= b[i])
	}
	return k
}

// SelectLEColColI64 writes the positions where a[i] <= b[i] holds into
// res and returns how many matched.
func SelectLEColColI64(res []int32, a, b []int64, sel []int32) int {
	if sel == nil {
		return selectLEColColDenseI64(res, a, b)
	}
	return selectLEColColSelI64(res, a, b, sel)
}

func selectGTColValSelI64(res []int32, in []int64, v int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] > v)
	}
	return k
}

// SelectGTColValI64 writes the positions i (or sel entries) where
// in[i] > v holds into res and returns how many matched.
func SelectGTColValI64(res []int32, in []int64, v int64, sel []int32) int {
	if sel == nil {
		return selectGTColValDenseI64(res, in, v)
	}
	return selectGTColValSelI64(res, in, v, sel)
}

func selectGTColColSelI64(res []int32, a, b []int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] > b[i])
	}
	return k
}

// SelectGTColColI64 writes the positions where a[i] > b[i] holds into
// res and returns how many matched.
func SelectGTColColI64(res []int32, a, b []int64, sel []int32) int {
	if sel == nil {
		return selectGTColColDenseI64(res, a, b)
	}
	return selectGTColColSelI64(res, a, b, sel)
}

func selectGEColValSelI64(res []int32, in []int64, v int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] >= v)
	}
	return k
}

// SelectGEColValI64 writes the positions i (or sel entries) where
// in[i] >= v holds into res and returns how many matched.
func SelectGEColValI64(res []int32, in []int64, v int64, sel []int32) int {
	if sel == nil {
		return selectGEColValDenseI64(res, in, v)
	}
	return selectGEColValSelI64(res, in, v, sel)
}

func selectGEColColSelI64(res []int32, a, b []int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] >= b[i])
	}
	return k
}

// SelectGEColColI64 writes the positions where a[i] >= b[i] holds into
// res and returns how many matched.
func SelectGEColColI64(res []int32, a, b []int64, sel []int32) int {
	if sel == nil {
		return selectGEColColDenseI64(res, a, b)
	}
	return selectGEColColSelI64(res, a, b, sel)
}

func selectEQColValSelI64(res []int32, in []int64, v int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] == v)
	}
	return k
}

// SelectEQColValI64 writes the positions i (or sel entries) where
// in[i] == v holds into res and returns how many matched.
func SelectEQColValI64(res []int32, in []int64, v int64, sel []int32) int {
	if sel == nil {
		return selectEQColValDenseI64(res, in, v)
	}
	return selectEQColValSelI64(res, in, v, sel)
}

func selectEQColColSelI64(res []int32, a, b []int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] == b[i])
	}
	return k
}

// SelectEQColColI64 writes the positions where a[i] == b[i] holds into
// res and returns how many matched.
func SelectEQColColI64(res []int32, a, b []int64, sel []int32) int {
	if sel == nil {
		return selectEQColColDenseI64(res, a, b)
	}
	return selectEQColColSelI64(res, a, b, sel)
}

func selectNEColValSelI64(res []int32, in []int64, v int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] != v)
	}
	return k
}

// SelectNEColValI64 writes the positions i (or sel entries) where
// in[i] != v holds into res and returns how many matched.
func SelectNEColValI64(res []int32, in []int64, v int64, sel []int32) int {
	if sel == nil {
		return selectNEColValDenseI64(res, in, v)
	}
	return selectNEColValSelI64(res, in, v, sel)
}

func selectNEColColSelI64(res []int32, a, b []int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] != b[i])
	}
	return k
}

// SelectNEColColI64 writes the positions where a[i] != b[i] holds into
// res and returns how many matched.
func SelectNEColColI64(res []int32, a, b []int64, sel []int32) int {
	if sel == nil {
		return selectNEColColDenseI64(res, a, b)
	}
	return selectNEColColSelI64(res, a, b, sel)
}

func selectBetweenColValSelI64(res []int32, in []int64, lo, hi int64, sel []int32) int {
	k := 0
	for _, i := range sel {
		x := in[i]
		res[k] = i
		k += b2i(x >= lo && x <= hi)
	}
	return k
}

// SelectBetweenColValI64 writes the positions where lo <= in[i] <= hi
// holds into res and returns how many matched.
func SelectBetweenColValI64(res []int32, in []int64, lo, hi int64, sel []int32) int {
	if sel == nil {
		return selectBetweenColValDenseI64(res, in, lo, hi)
	}
	return selectBetweenColValSelI64(res, in, lo, hi, sel)
}

func selectLTColValSelF64(res []int32, in []float64, v float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] < v)
	}
	return k
}

// SelectLTColValF64 writes the positions i (or sel entries) where
// in[i] < v holds into res and returns how many matched.
func SelectLTColValF64(res []int32, in []float64, v float64, sel []int32) int {
	if sel == nil {
		return selectLTColValDenseF64(res, in, v)
	}
	return selectLTColValSelF64(res, in, v, sel)
}

func selectLTColColSelF64(res []int32, a, b []float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] < b[i])
	}
	return k
}

// SelectLTColColF64 writes the positions where a[i] < b[i] holds into
// res and returns how many matched.
func SelectLTColColF64(res []int32, a, b []float64, sel []int32) int {
	if sel == nil {
		return selectLTColColDenseF64(res, a, b)
	}
	return selectLTColColSelF64(res, a, b, sel)
}

func selectLEColValSelF64(res []int32, in []float64, v float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] <= v)
	}
	return k
}

// SelectLEColValF64 writes the positions i (or sel entries) where
// in[i] <= v holds into res and returns how many matched.
func SelectLEColValF64(res []int32, in []float64, v float64, sel []int32) int {
	if sel == nil {
		return selectLEColValDenseF64(res, in, v)
	}
	return selectLEColValSelF64(res, in, v, sel)
}

func selectLEColColSelF64(res []int32, a, b []float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] <= b[i])
	}
	return k
}

// SelectLEColColF64 writes the positions where a[i] <= b[i] holds into
// res and returns how many matched.
func SelectLEColColF64(res []int32, a, b []float64, sel []int32) int {
	if sel == nil {
		return selectLEColColDenseF64(res, a, b)
	}
	return selectLEColColSelF64(res, a, b, sel)
}

func selectGTColValSelF64(res []int32, in []float64, v float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] > v)
	}
	return k
}

// SelectGTColValF64 writes the positions i (or sel entries) where
// in[i] > v holds into res and returns how many matched.
func SelectGTColValF64(res []int32, in []float64, v float64, sel []int32) int {
	if sel == nil {
		return selectGTColValDenseF64(res, in, v)
	}
	return selectGTColValSelF64(res, in, v, sel)
}

func selectGTColColSelF64(res []int32, a, b []float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] > b[i])
	}
	return k
}

// SelectGTColColF64 writes the positions where a[i] > b[i] holds into
// res and returns how many matched.
func SelectGTColColF64(res []int32, a, b []float64, sel []int32) int {
	if sel == nil {
		return selectGTColColDenseF64(res, a, b)
	}
	return selectGTColColSelF64(res, a, b, sel)
}

func selectGEColValSelF64(res []int32, in []float64, v float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] >= v)
	}
	return k
}

// SelectGEColValF64 writes the positions i (or sel entries) where
// in[i] >= v holds into res and returns how many matched.
func SelectGEColValF64(res []int32, in []float64, v float64, sel []int32) int {
	if sel == nil {
		return selectGEColValDenseF64(res, in, v)
	}
	return selectGEColValSelF64(res, in, v, sel)
}

func selectGEColColSelF64(res []int32, a, b []float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] >= b[i])
	}
	return k
}

// SelectGEColColF64 writes the positions where a[i] >= b[i] holds into
// res and returns how many matched.
func SelectGEColColF64(res []int32, a, b []float64, sel []int32) int {
	if sel == nil {
		return selectGEColColDenseF64(res, a, b)
	}
	return selectGEColColSelF64(res, a, b, sel)
}

func selectEQColValSelF64(res []int32, in []float64, v float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] == v)
	}
	return k
}

// SelectEQColValF64 writes the positions i (or sel entries) where
// in[i] == v holds into res and returns how many matched.
func SelectEQColValF64(res []int32, in []float64, v float64, sel []int32) int {
	if sel == nil {
		return selectEQColValDenseF64(res, in, v)
	}
	return selectEQColValSelF64(res, in, v, sel)
}

func selectEQColColSelF64(res []int32, a, b []float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] == b[i])
	}
	return k
}

// SelectEQColColF64 writes the positions where a[i] == b[i] holds into
// res and returns how many matched.
func SelectEQColColF64(res []int32, a, b []float64, sel []int32) int {
	if sel == nil {
		return selectEQColColDenseF64(res, a, b)
	}
	return selectEQColColSelF64(res, a, b, sel)
}

func selectNEColValSelF64(res []int32, in []float64, v float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(in[i] != v)
	}
	return k
}

// SelectNEColValF64 writes the positions i (or sel entries) where
// in[i] != v holds into res and returns how many matched.
func SelectNEColValF64(res []int32, in []float64, v float64, sel []int32) int {
	if sel == nil {
		return selectNEColValDenseF64(res, in, v)
	}
	return selectNEColValSelF64(res, in, v, sel)
}

func selectNEColColSelF64(res []int32, a, b []float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		res[k] = i
		k += b2i(a[i] != b[i])
	}
	return k
}

// SelectNEColColF64 writes the positions where a[i] != b[i] holds into
// res and returns how many matched.
func SelectNEColColF64(res []int32, a, b []float64, sel []int32) int {
	if sel == nil {
		return selectNEColColDenseF64(res, a, b)
	}
	return selectNEColColSelF64(res, a, b, sel)
}

func selectBetweenColValSelF64(res []int32, in []float64, lo, hi float64, sel []int32) int {
	k := 0
	for _, i := range sel {
		x := in[i]
		res[k] = i
		k += b2i(x >= lo && x <= hi)
	}
	return k
}

// SelectBetweenColValF64 writes the positions where lo <= in[i] <= hi
// holds into res and returns how many matched.
func SelectBetweenColValF64(res []int32, in []float64, lo, hi float64, sel []int32) int {
	if sel == nil {
		return selectBetweenColValDenseF64(res, in, lo, hi)
	}
	return selectBetweenColValSelF64(res, in, lo, hi, sel)
}

// HashColU8 seeds res with the hash of each live vals position.
func HashColU8(res []uint64, vals []uint8, sel []int32) {
	if sel == nil {
		hashColDenseU8(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = xmx(uint64(vals[i]) + hashSeed)
	}
}

// HashCombineColU8 folds each live vals position into the running hash
// in res.
func HashCombineColU8(res []uint64, vals []uint8, sel []int32) {
	if sel == nil {
		hashCombineColDenseU8(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = rotl27(res[i]) ^ xmx(uint64(vals[i])+hashSeed)
	}
}

// HashColU16 seeds res with the hash of each live vals position.
func HashColU16(res []uint64, vals []uint16, sel []int32) {
	if sel == nil {
		hashColDenseU16(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = xmx(uint64(vals[i]) + hashSeed)
	}
}

// HashCombineColU16 folds each live vals position into the running hash
// in res.
func HashCombineColU16(res []uint64, vals []uint16, sel []int32) {
	if sel == nil {
		hashCombineColDenseU16(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = rotl27(res[i]) ^ xmx(uint64(vals[i])+hashSeed)
	}
}

// HashColI32 seeds res with the hash of each live vals position.
func HashColI32(res []uint64, vals []int32, sel []int32) {
	if sel == nil {
		hashColDenseI32(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = xmx(uint64(vals[i]) + hashSeed)
	}
}

// HashCombineColI32 folds each live vals position into the running hash
// in res.
func HashCombineColI32(res []uint64, vals []int32, sel []int32) {
	if sel == nil {
		hashCombineColDenseI32(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = rotl27(res[i]) ^ xmx(uint64(vals[i])+hashSeed)
	}
}

// HashColI64 seeds res with the hash of each live vals position.
func HashColI64(res []uint64, vals []int64, sel []int32) {
	if sel == nil {
		hashColDenseI64(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = xmx(uint64(vals[i]) + hashSeed)
	}
}

// HashCombineColI64 folds each live vals position into the running hash
// in res.
func HashCombineColI64(res []uint64, vals []int64, sel []int32) {
	if sel == nil {
		hashCombineColDenseI64(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = rotl27(res[i]) ^ xmx(uint64(vals[i])+hashSeed)
	}
}

// HashColF64 seeds res with the hash of each live vals position,
// normalizing -0 to +0 first.
func HashColF64(res []uint64, vals []float64, sel []int32) {
	if sel == nil {
		hashColDenseF64(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = HashCombineValueF64(0, vals[i])
	}
}

// HashCombineColF64 folds each live vals position into the running hash.
func HashCombineColF64(res []uint64, vals []float64, sel []int32) {
	if sel == nil {
		hashCombineColDenseF64(res, vals)
		return
	}
	for _, i := range sel {
		res[i] = HashCombineValueF64(res[i], vals[i])
	}
}

// AggrSumI64FromU8 adds each live vals position into acc at its group id.
func AggrSumI64FromU8(acc []int64, vals []uint8, groups, sel []int32) {
	if sel == nil {
		aggrSumI64FromU8Dense(acc, vals, groups)
		return
	}
	for _, i := range sel {
		acc[groups[i]] += int64(vals[i])
	}
}

// AggrSumCountI64FromU8 is the fused sum+count kernel: one pass updates
// both the sum accumulator and the per-group row count.
func AggrSumCountI64FromU8(acc []int64, cnt []int64, vals []uint8, groups, sel []int32) {
	if sel == nil {
		aggrSumCountI64FromU8Dense(acc, cnt, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] += int64(vals[i])
		cnt[g]++
	}
}

// AggrSumI64FromU16 adds each live vals position into acc at its group id.
func AggrSumI64FromU16(acc []int64, vals []uint16, groups, sel []int32) {
	if sel == nil {
		aggrSumI64FromU16Dense(acc, vals, groups)
		return
	}
	for _, i := range sel {
		acc[groups[i]] += int64(vals[i])
	}
}

// AggrSumCountI64FromU16 is the fused sum+count kernel: one pass updates
// both the sum accumulator and the per-group row count.
func AggrSumCountI64FromU16(acc []int64, cnt []int64, vals []uint16, groups, sel []int32) {
	if sel == nil {
		aggrSumCountI64FromU16Dense(acc, cnt, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] += int64(vals[i])
		cnt[g]++
	}
}

// AggrSumI64FromI32 adds each live vals position into acc at its group id.
func AggrSumI64FromI32(acc []int64, vals []int32, groups, sel []int32) {
	if sel == nil {
		aggrSumI64FromI32Dense(acc, vals, groups)
		return
	}
	for _, i := range sel {
		acc[groups[i]] += int64(vals[i])
	}
}

// AggrSumCountI64FromI32 is the fused sum+count kernel: one pass updates
// both the sum accumulator and the per-group row count.
func AggrSumCountI64FromI32(acc []int64, cnt []int64, vals []int32, groups, sel []int32) {
	if sel == nil {
		aggrSumCountI64FromI32Dense(acc, cnt, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] += int64(vals[i])
		cnt[g]++
	}
}

// AggrSumI64FromI64 adds each live vals position into acc at its group id.
func AggrSumI64FromI64(acc []int64, vals []int64, groups, sel []int32) {
	if sel == nil {
		aggrSumI64FromI64Dense(acc, vals, groups)
		return
	}
	for _, i := range sel {
		acc[groups[i]] += int64(vals[i])
	}
}

// AggrSumCountI64FromI64 is the fused sum+count kernel: one pass updates
// both the sum accumulator and the per-group row count.
func AggrSumCountI64FromI64(acc []int64, cnt []int64, vals []int64, groups, sel []int32) {
	if sel == nil {
		aggrSumCountI64FromI64Dense(acc, cnt, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] += int64(vals[i])
		cnt[g]++
	}
}

// AggrSumF64FromU8 adds each live vals position into acc at its group id.
func AggrSumF64FromU8(acc []float64, vals []uint8, groups, sel []int32) {
	if sel == nil {
		aggrSumF64FromU8Dense(acc, vals, groups)
		return
	}
	for _, i := range sel {
		acc[groups[i]] += float64(vals[i])
	}
}

// AggrSumCountF64FromU8 is the fused sum+count kernel: one pass updates
// both the sum accumulator and the per-group row count.
func AggrSumCountF64FromU8(acc []float64, cnt []int64, vals []uint8, groups, sel []int32) {
	if sel == nil {
		aggrSumCountF64FromU8Dense(acc, cnt, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] += float64(vals[i])
		cnt[g]++
	}
}

// AggrSumF64FromU16 adds each live vals position into acc at its group id.
func AggrSumF64FromU16(acc []float64, vals []uint16, groups, sel []int32) {
	if sel == nil {
		aggrSumF64FromU16Dense(acc, vals, groups)
		return
	}
	for _, i := range sel {
		acc[groups[i]] += float64(vals[i])
	}
}

// AggrSumCountF64FromU16 is the fused sum+count kernel: one pass updates
// both the sum accumulator and the per-group row count.
func AggrSumCountF64FromU16(acc []float64, cnt []int64, vals []uint16, groups, sel []int32) {
	if sel == nil {
		aggrSumCountF64FromU16Dense(acc, cnt, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] += float64(vals[i])
		cnt[g]++
	}
}

// AggrSumF64FromI32 adds each live vals position into acc at its group id.
func AggrSumF64FromI32(acc []float64, vals []int32, groups, sel []int32) {
	if sel == nil {
		aggrSumF64FromI32Dense(acc, vals, groups)
		return
	}
	for _, i := range sel {
		acc[groups[i]] += float64(vals[i])
	}
}

// AggrSumCountF64FromI32 is the fused sum+count kernel: one pass updates
// both the sum accumulator and the per-group row count.
func AggrSumCountF64FromI32(acc []float64, cnt []int64, vals []int32, groups, sel []int32) {
	if sel == nil {
		aggrSumCountF64FromI32Dense(acc, cnt, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] += float64(vals[i])
		cnt[g]++
	}
}

// AggrSumF64FromI64 adds each live vals position into acc at its group id.
func AggrSumF64FromI64(acc []float64, vals []int64, groups, sel []int32) {
	if sel == nil {
		aggrSumF64FromI64Dense(acc, vals, groups)
		return
	}
	for _, i := range sel {
		acc[groups[i]] += float64(vals[i])
	}
}

// AggrSumCountF64FromI64 is the fused sum+count kernel: one pass updates
// both the sum accumulator and the per-group row count.
func AggrSumCountF64FromI64(acc []float64, cnt []int64, vals []int64, groups, sel []int32) {
	if sel == nil {
		aggrSumCountF64FromI64Dense(acc, cnt, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] += float64(vals[i])
		cnt[g]++
	}
}

// AggrSumF64FromF64 adds each live vals position into acc at its group id.
func AggrSumF64FromF64(acc []float64, vals []float64, groups, sel []int32) {
	if sel == nil {
		aggrSumF64FromF64Dense(acc, vals, groups)
		return
	}
	for _, i := range sel {
		acc[groups[i]] += float64(vals[i])
	}
}

// AggrSumCountF64FromF64 is the fused sum+count kernel: one pass updates
// both the sum accumulator and the per-group row count.
func AggrSumCountF64FromF64(acc []float64, cnt []int64, vals []float64, groups, sel []int32) {
	if sel == nil {
		aggrSumCountF64FromF64Dense(acc, cnt, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] += float64(vals[i])
		cnt[g]++
	}
}

// AggrMinBranchlessI32 is the branch-free grouped min kernel. Unlike the
// generic AggrMin it requires acc pre-initialized to the min identity
// sentinel for unseen groups (MinMaxSentinel); seen is still maintained
// for merge bookkeeping, via unconditional stores.
func AggrMinBranchlessI32(acc []int32, seen []bool, vals []int32, groups, sel []int32) {
	if sel == nil {
		aggrMinI32Dense(acc, seen, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] = min(acc[g], vals[i])
		seen[g] = true
	}
}

// AggrMaxBranchlessI32 is the branch-free grouped max kernel. Unlike the
// generic AggrMax it requires acc pre-initialized to the max identity
// sentinel for unseen groups (MinMaxSentinel); seen is still maintained
// for merge bookkeeping, via unconditional stores.
func AggrMaxBranchlessI32(acc []int32, seen []bool, vals []int32, groups, sel []int32) {
	if sel == nil {
		aggrMaxI32Dense(acc, seen, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] = max(acc[g], vals[i])
		seen[g] = true
	}
}

// AggrMinBranchlessI64 is the branch-free grouped min kernel. Unlike the
// generic AggrMin it requires acc pre-initialized to the min identity
// sentinel for unseen groups (MinMaxSentinel); seen is still maintained
// for merge bookkeeping, via unconditional stores.
func AggrMinBranchlessI64(acc []int64, seen []bool, vals []int64, groups, sel []int32) {
	if sel == nil {
		aggrMinI64Dense(acc, seen, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] = min(acc[g], vals[i])
		seen[g] = true
	}
}

// AggrMaxBranchlessI64 is the branch-free grouped max kernel. Unlike the
// generic AggrMax it requires acc pre-initialized to the max identity
// sentinel for unseen groups (MinMaxSentinel); seen is still maintained
// for merge bookkeeping, via unconditional stores.
func AggrMaxBranchlessI64(acc []int64, seen []bool, vals []int64, groups, sel []int32) {
	if sel == nil {
		aggrMaxI64Dense(acc, seen, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] = max(acc[g], vals[i])
		seen[g] = true
	}
}

// AggrMinBranchlessF64 is the branch-free grouped min kernel. Unlike the
// generic AggrMin it requires acc pre-initialized to the min identity
// sentinel for unseen groups (MinMaxSentinel); seen is still maintained
// for merge bookkeeping, via unconditional stores.
func AggrMinBranchlessF64(acc []float64, seen []bool, vals []float64, groups, sel []int32) {
	if sel == nil {
		aggrMinF64Dense(acc, seen, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] = min(acc[g], vals[i])
		seen[g] = true
	}
}

// AggrMaxBranchlessF64 is the branch-free grouped max kernel. Unlike the
// generic AggrMax it requires acc pre-initialized to the max identity
// sentinel for unseen groups (MinMaxSentinel); seen is still maintained
// for merge bookkeeping, via unconditional stores.
func AggrMaxBranchlessF64(acc []float64, seen []bool, vals []float64, groups, sel []int32) {
	if sel == nil {
		aggrMaxF64Dense(acc, seen, vals, groups)
		return
	}
	for _, i := range sel {
		g := groups[i]
		acc[g] = max(acc[g], vals[i])
		seen[g] = true
	}
}

// AggrCountKernel bumps the per-group row count for each live position;
// n is the vector length when sel is nil.
func AggrCountKernel(cnt []int64, groups []int32, sel []int32, n int) {
	if sel == nil {
		aggrCountDense(cnt, groups, n)
		return
	}
	for _, i := range sel {
		cnt[groups[i]]++
	}
}

// MapAddColColI64 computes res[i] = a[i] + b[i] at the live positions.
func MapAddColColI64(res, a, b []int64, sel []int32) {
	if sel == nil {
		mapAddColColDenseI64(res, a, b)
		return
	}
	for _, i := range sel {
		res[i] = a[i] + b[i]
	}
}

// MapAddColValI64 computes res[i] = a[i] + v at the live positions.
func MapAddColValI64(res, a []int64, v int64, sel []int32) {
	if sel == nil {
		mapAddColValDenseI64(res, a, v)
		return
	}
	for _, i := range sel {
		res[i] = a[i] + v
	}
}

// MapSubColColI64 computes res[i] = a[i] - b[i] at the live positions.
func MapSubColColI64(res, a, b []int64, sel []int32) {
	if sel == nil {
		mapSubColColDenseI64(res, a, b)
		return
	}
	for _, i := range sel {
		res[i] = a[i] - b[i]
	}
}

// MapSubColValI64 computes res[i] = a[i] - v at the live positions.
func MapSubColValI64(res, a []int64, v int64, sel []int32) {
	if sel == nil {
		mapSubColValDenseI64(res, a, v)
		return
	}
	for _, i := range sel {
		res[i] = a[i] - v
	}
}

// MapMulColColI64 computes res[i] = a[i] * b[i] at the live positions.
func MapMulColColI64(res, a, b []int64, sel []int32) {
	if sel == nil {
		mapMulColColDenseI64(res, a, b)
		return
	}
	for _, i := range sel {
		res[i] = a[i] * b[i]
	}
}

// MapMulColValI64 computes res[i] = a[i] * v at the live positions.
func MapMulColValI64(res, a []int64, v int64, sel []int32) {
	if sel == nil {
		mapMulColValDenseI64(res, a, v)
		return
	}
	for _, i := range sel {
		res[i] = a[i] * v
	}
}

// MapSubValColI64 computes res[i] = v - a[i] at the live positions.
func MapSubValColI64(res []int64, v int64, a []int64, sel []int32) {
	if sel == nil {
		mapSubValColDenseI64(res, v, a)
		return
	}
	for _, i := range sel {
		res[i] = v - a[i]
	}
}

// MapAddColColF64 computes res[i] = a[i] + b[i] at the live positions.
func MapAddColColF64(res, a, b []float64, sel []int32) {
	if sel == nil {
		mapAddColColDenseF64(res, a, b)
		return
	}
	for _, i := range sel {
		res[i] = a[i] + b[i]
	}
}

// MapAddColValF64 computes res[i] = a[i] + v at the live positions.
func MapAddColValF64(res, a []float64, v float64, sel []int32) {
	if sel == nil {
		mapAddColValDenseF64(res, a, v)
		return
	}
	for _, i := range sel {
		res[i] = a[i] + v
	}
}

// MapSubColColF64 computes res[i] = a[i] - b[i] at the live positions.
func MapSubColColF64(res, a, b []float64, sel []int32) {
	if sel == nil {
		mapSubColColDenseF64(res, a, b)
		return
	}
	for _, i := range sel {
		res[i] = a[i] - b[i]
	}
}

// MapSubColValF64 computes res[i] = a[i] - v at the live positions.
func MapSubColValF64(res, a []float64, v float64, sel []int32) {
	if sel == nil {
		mapSubColValDenseF64(res, a, v)
		return
	}
	for _, i := range sel {
		res[i] = a[i] - v
	}
}

// MapMulColColF64 computes res[i] = a[i] * b[i] at the live positions.
func MapMulColColF64(res, a, b []float64, sel []int32) {
	if sel == nil {
		mapMulColColDenseF64(res, a, b)
		return
	}
	for _, i := range sel {
		res[i] = a[i] * b[i]
	}
}

// MapMulColValF64 computes res[i] = a[i] * v at the live positions.
func MapMulColValF64(res, a []float64, v float64, sel []int32) {
	if sel == nil {
		mapMulColValDenseF64(res, a, v)
		return
	}
	for _, i := range sel {
		res[i] = a[i] * v
	}
}

// MapSubValColF64 computes res[i] = v - a[i] at the live positions.
func MapSubValColF64(res []float64, v float64, a []float64, sel []int32) {
	if sel == nil {
		mapSubValColDenseF64(res, v, a)
		return
	}
	for _, i := range sel {
		res[i] = v - a[i]
	}
}
