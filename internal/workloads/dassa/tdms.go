// Package dassa reproduces the paper's DASSA workflow (§1.1, §3.2, §6.2):
// parallel analysis of distributed acoustic sensing data. Raw ".tdms" sensor
// files are converted to the hierarchical format by tdms2h5, then analysis
// programs (Decimate, X-Correlation-Stacking) produce data products whose
// backward lineage the domain scientists query at file, dataset, and
// attribute granularity.
package dassa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"github.com/hpc-io/prov-io/internal/posixio"
)

// TDMS is a minimal binary sensor-data container standing in for NI's TDMS
// format: a magic header, per-channel metadata properties, and float32
// sample blocks. It is read and written through the POSIX interface, which
// is the point — DASSA mixes POSIX I/O (raw inputs) with library I/O
// (HDF5-style products), and PROV-IO must track both.
type TDMS struct {
	Channels []TDMSChannel
}

// TDMSChannel is one acoustic channel.
type TDMSChannel struct {
	Name       string
	Properties map[string]string
	Samples    []float32
}

const tdmsMagic = "TDSm"

// errNotTDMS reports a bad magic header.
var errNotTDMS = errors.New("dassa: not a TDMS file")

// WriteTDMS serializes a TDMS container through the (possibly wrapped)
// POSIX layer.
func WriteTDMS(fs *posixio.FS, path string, t *TDMS) error {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	buf := make([]byte, 0, 4096)
	buf = append(buf, tdmsMagic...)
	buf = appendU32(buf, uint32(len(t.Channels)))
	for _, ch := range t.Channels {
		buf = appendStr(buf, ch.Name)
		buf = appendU32(buf, uint32(len(ch.Properties)))
		for _, k := range sortedKeys(ch.Properties) {
			buf = appendStr(buf, k)
			buf = appendStr(buf, ch.Properties[k])
		}
		buf = appendU32(buf, uint32(len(ch.Samples)))
		for _, s := range ch.Samples {
			buf = appendU32(buf, math.Float32bits(s))
		}
	}
	if _, err := f.Write(buf); err != nil {
		return err
	}
	return f.Sync()
}

// ReadTDMS parses a TDMS container through the POSIX layer.
func ReadTDMS(fs *posixio.FS, path string) (*TDMS, error) {
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 || string(data[:4]) != tdmsMagic {
		return nil, errNotTDMS
	}
	pos := 4
	nCh, pos, err := readU32(data, pos)
	if err != nil {
		return nil, err
	}
	if nCh > 1<<16 {
		return nil, fmt.Errorf("dassa: implausible channel count %d", nCh)
	}
	out := &TDMS{}
	for c := 0; c < int(nCh); c++ {
		var ch TDMSChannel
		ch.Name, pos, err = readStr(data, pos)
		if err != nil {
			return nil, err
		}
		var nProps uint32
		nProps, pos, err = readU32(data, pos)
		if err != nil {
			return nil, err
		}
		ch.Properties = make(map[string]string, nProps)
		for i := 0; i < int(nProps); i++ {
			var k, v string
			k, pos, err = readStr(data, pos)
			if err != nil {
				return nil, err
			}
			v, pos, err = readStr(data, pos)
			if err != nil {
				return nil, err
			}
			ch.Properties[k] = v
		}
		var nSamples uint32
		nSamples, pos, err = readU32(data, pos)
		if err != nil {
			return nil, err
		}
		if int(nSamples)*4 > len(data)-pos {
			return nil, fmt.Errorf("dassa: truncated sample block in %s", path)
		}
		ch.Samples = make([]float32, nSamples)
		for i := range ch.Samples {
			var bits uint32
			bits, pos, err = readU32(data, pos)
			if err != nil {
				return nil, err
			}
			ch.Samples[i] = math.Float32frombits(bits)
		}
		out.Channels = append(out.Channels, ch)
	}
	return out, nil
}

func appendU32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func readU32(data []byte, pos int) (uint32, int, error) {
	if pos+4 > len(data) {
		return 0, pos, errors.New("dassa: truncated TDMS data")
	}
	return binary.LittleEndian.Uint32(data[pos:]), pos + 4, nil
}

func readStr(data []byte, pos int) (string, int, error) {
	n, pos, err := readU32(data, pos)
	if err != nil {
		return "", pos, err
	}
	if pos+int(n) > len(data) {
		return "", pos, errors.New("dassa: truncated TDMS string")
	}
	return string(data[pos : pos+int(n)]), pos + int(n), nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
