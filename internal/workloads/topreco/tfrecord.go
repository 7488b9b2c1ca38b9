package topreco

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/hpc-io/prov-io/internal/posixio"
)

// TFRecord framing, wire-compatible with TensorFlow's format: each record is
//
//	uint64  length
//	uint32  masked crc32c(length)
//	bytes   data[length]
//	uint32  masked crc32c(data)
//
// using the Castagnoli polynomial and TensorFlow's CRC mask.
const crcMaskDelta = 0xa282ead8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maskedCRC is TensorFlow's masked crc32c.
func maskedCRC(data []byte) uint32 {
	c := crc32.Checksum(data, castagnoli)
	return ((c >> 15) | (c << 17)) + crcMaskDelta
}

// errBadTFRecord reports framing or checksum corruption.
var errBadTFRecord = errors.New("topreco: corrupt tfrecord")

// tfRecordWriter frames records onto a wrapped POSIX file.
type tfRecordWriter struct {
	f *posixio.File
}

// newTFRecordWriter creates path and returns a writer.
func newTFRecordWriter(fs *posixio.FS, path string) (*tfRecordWriter, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	return &tfRecordWriter{f: f}, nil
}

// Write frames one record.
func (w *tfRecordWriter) Write(data []byte) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(len(data)))
	binary.LittleEndian.PutUint32(hdr[8:], maskedCRC(hdr[:8]))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.f.Write(data); err != nil {
		return err
	}
	var ftr [4]byte
	binary.LittleEndian.PutUint32(ftr[:], maskedCRC(data))
	if _, err := w.f.Write(ftr[:]); err != nil {
		return err
	}
	return nil
}

// Close syncs and closes the file.
func (w *tfRecordWriter) Close() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.f.Close()
}

// tfRecordReader iterates over a framed file.
type tfRecordReader struct {
	f   *posixio.File
	off int64
}

// newTFRecordReader opens path for reading.
func newTFRecordReader(fs *posixio.FS, path string) (*tfRecordReader, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	return &tfRecordReader{f: f}, nil
}

// Next returns the next record, or io.EOF at end.
func (r *tfRecordReader) Next() ([]byte, error) {
	var hdr [12]byte
	n, err := r.f.ReadAt(hdr[:], r.off)
	if n == 0 && err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	if n < 12 {
		return nil, fmt.Errorf("%w: truncated header", errBadTFRecord)
	}
	length := binary.LittleEndian.Uint64(hdr[:8])
	if binary.LittleEndian.Uint32(hdr[8:]) != maskedCRC(hdr[:8]) {
		return nil, fmt.Errorf("%w: header checksum", errBadTFRecord)
	}
	if length > 1<<30 {
		return nil, fmt.Errorf("%w: implausible record length %d", errBadTFRecord, length)
	}
	payload := make([]byte, length+4)
	if m, err := r.f.ReadAt(payload, r.off+12); m < len(payload) {
		_ = err
		return nil, fmt.Errorf("%w: truncated payload", errBadTFRecord)
	}
	data := payload[:length]
	if binary.LittleEndian.Uint32(payload[length:]) != maskedCRC(data) {
		return nil, fmt.Errorf("%w: payload checksum", errBadTFRecord)
	}
	r.off += 12 + int64(length) + 4
	return data, nil
}

// Close closes the file.
func (r *tfRecordReader) Close() error { return r.f.Close() }
