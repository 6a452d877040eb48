package dispatch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"rrsched/internal/atomicio"
	"rrsched/internal/serve"
)

// ConvertStateDir rewrites a dispatcher state dir written by an older build
// in place: every shard-*.json holding a JSON shard image (schema
// rrdispatch-state/v1) is rewritten with the image converted to the binary
// form (serve.ConvertImage) under the current schema. Files already current
// are left alone, so converting twice is harmless. Returns the number of
// files converted. Run it on a stopped dispatcher only.
func ConvertStateDir(dir string) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.json"))
	if err != nil {
		return 0, fmt.Errorf("dispatch: probing state dir: %w", err)
	}
	converted := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return 0, fmt.Errorf("dispatch: reading %s: %w", f, err)
		}
		var old struct {
			Schema string          `json:"schema"`
			Shard  int             `json:"shard"`
			Shards int             `json:"shards,omitempty"`
			Epoch  int64           `json:"epoch"`
			Round  int64           `json:"round"`
			Data   json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(data, &old); err != nil {
			return 0, fmt.Errorf("dispatch: decoding %s: %w", f, err)
		}
		if old.Schema != legacyStateSchema {
			continue
		}
		st := shardState{Schema: stateSchema, Shard: old.Shard, Shards: old.Shards, Epoch: old.Epoch, Round: old.Round}
		if len(old.Data) > 0 && string(old.Data) != "null" {
			if st.Data, err = serve.ConvertImage(old.Data); err != nil {
				return 0, fmt.Errorf("dispatch: converting %s: %w", f, err)
			}
		}
		out, err := json.Marshal(st)
		if err != nil {
			return 0, fmt.Errorf("dispatch: encoding %s: %w", f, err)
		}
		if err := atomicio.WriteFile(f, out, 0o644); err != nil {
			return 0, fmt.Errorf("dispatch: writing %s: %w", f, err)
		}
		converted++
	}
	return converted, nil
}
