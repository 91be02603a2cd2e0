package asp

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// snapshotFormat versions what snapshot DTO contents mean where gob's
// field matching cannot tell: the window join's pane layout and the
// binary match keys in a sink's seen-set. A DTO with a Format field
// rejects any other value, so a snapshot written by an older build fails
// to restore (Format decodes as 0) instead of restoring wrong state.
const snapshotFormat = 1

// gobDecodeFormat decodes a DTO with gobDecode and then rejects it unless
// its Format field, passed as format, is snapshotFormat.
func gobDecodeFormat(what string, data []byte, v any, format *int) error {
	if err := gobDecode(data, v); err != nil {
		return err
	}
	if *format != snapshotFormat {
		return fmt.Errorf("asp: %s snapshot has format %d, this build reads %d", what, *format, snapshotFormat)
	}
	return nil
}

// gobEncode serializes a snapshot DTO. Operators exchange state with the
// checkpoint coordinator as opaque byte slices; gob keeps the format
// self-describing so snapshots survive field additions to the DTOs.
func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// gobDecode deserializes a snapshot DTO produced by gobEncode.
func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}
