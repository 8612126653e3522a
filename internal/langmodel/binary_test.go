package langmodel

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	m := docModel("apple apple bear", "cat apple", "döner über") // non-ascii too
	var buf bytes.Buffer
	if _, err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) {
		t.Error("binary round trip mismatch")
	}
}

func TestBinaryEmptyModel(t *testing.T) {
	m := New()
	var buf bytes.Buffer
	if _, err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.VocabSize() != 0 || got.Docs() != 0 {
		t.Errorf("empty model round trip: %v", got)
	}
}

func TestBinaryDeterministic(t *testing.T) {
	m := docModel("zeta alpha mid", "alpha beta")
	var a, b bytes.Buffer
	if _, err := m.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("binary encoding not deterministic")
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	m := New()
	for i := 0; i < 2000; i++ {
		m.AddTerm(term(i)+"suffix", TermStats{DF: i%50 + 1, CTF: int64(i%200 + 1)})
	}
	var bin, js bytes.Buffer
	if _, err := m.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteTo(&js); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= js.Len() {
		t.Errorf("binary %d bytes not smaller than JSON %d bytes", bin.Len(), js.Len())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"QBLM",              // truncated magic
		"XXXXX",             // wrong magic
		"QBLM1",             // no body
		"QBLM1\x01",         // truncated term count
		"QBLM1\x01\x01\xff", // truncated term
	}
	for _, c := range cases {
		if _, err := ReadBinary(strings.NewReader(c)); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
}

func TestBinaryRejectsDuplicateTerms(t *testing.T) {
	// Handcraft a payload with the same term twice.
	var buf bytes.Buffer
	buf.WriteString("QBLM1")
	buf.WriteByte(1) // docs
	buf.WriteByte(2) // two terms
	for i := 0; i < 2; i++ {
		buf.WriteByte(3) // len
		buf.WriteString("abc")
		buf.WriteByte(1) // df
		buf.WriteByte(1) // ctf
	}
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("duplicate term accepted")
	}
}

func TestBinaryQuickRoundTrip(t *testing.T) {
	if err := quick.Check(func(words [6]uint16, dfs [6]uint8) bool {
		m := New()
		for i := range words {
			m.AddTerm(term(int(words[i])), TermStats{DF: int(dfs[i]) + 1, CTF: int64(dfs[i]) + 2})
		}
		var buf bytes.Buffer
		if _, err := m.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		return err == nil && got.Equal(m)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// hostileHeader is a 20-byte payload whose header claims 2^28 terms — the
// most maxBinaryTerms admits — followed by one complete term and then
// nothing.
func hostileHeader() []byte {
	b := append([]byte("QBLM1"), 1)             // magic, docs
	b = binary.AppendUvarint(b, maxBinaryTerms) // term count
	b = append(b, 3, 'a', 'b', 'c', 1, 1)       // one term
	return append(b, 9, 'x', 'y')               // truncated second term
}

// TestBinaryHostileHeaderFailsCheaply keeps presizing from becoming a
// memory-exhaustion vector: decoding must fail on the truncated body
// having allocated well under a megabyte, whatever the header claimed.
func TestBinaryHostileHeaderFailsCheaply(t *testing.T) {
	data := hostileHeader()
	if len(data) > 24 {
		t.Fatalf("hostile payload is %d bytes; keep it tiny", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated payload claiming 2^28 terms accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("decoding a %d-byte hostile header allocated %d bytes; want < 1 MiB", len(data), alloc)
	}
}

func FuzzReadBinary(f *testing.F) {
	m := docModel("seed words here", "more seed text")
	var buf bytes.Buffer
	if _, err := m.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("QBLM1"))
	f.Add([]byte{})
	f.Add(hostileHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var sum int64
		got.Range(func(_ string, st TermStats) bool {
			sum += st.CTF
			return true
		})
		if sum != got.TotalCTF() {
			t.Fatal("decoded model violates ctf invariant")
		}
	})
}

func BenchmarkWriteBinary(b *testing.B) {
	m := New()
	for i := 0; i < 10000; i++ {
		m.AddTerm(term(i)+"x", TermStats{DF: i%100 + 1, CTF: int64(i%500 + 1)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := m.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	m := New()
	for i := 0; i < 10000; i++ {
		m.AddTerm(term(i)+"x", TermStats{DF: i%100 + 1, CTF: int64(i%500 + 1)})
	}
	var buf bytes.Buffer
	if _, err := m.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
