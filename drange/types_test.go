package drange

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// TestStatsJSONKeys pins the JSON keys of the device and shard accounting
// types. They are aliases of internal types, so the tags live in internal
// packages; losing or renaming one there would silently change every Stats
// and benchmark report.
func TestStatsJSONKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
		keys []string
	}{
		{"DeviceStats", &DeviceStats{}, []string{
			"activates", "precharges", "reads", "writes", "refreshes",
			"injected_flips", "reduced_trcd_activates",
		}},
		{"ShardStats", &ShardStats{}, []string{
			"shard", "banks", "bits_per_iteration", "bits_harvested", "bits_delivered",
			"sim_cycles", "sim_ns", "throughput_mbps", "latency_64_ns",
		}},
		{"Geometry", &Geometry{}, []string{
			"banks", "rows_per_bank", "cols_per_row", "subarray_rows", "word_bits",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Every field non-zero, so an omitempty tag cannot hide a key.
			rv := reflect.ValueOf(tc.v).Elem()
			for i := 0; i < rv.NumField(); i++ {
				switch f := rv.Field(i); f.Kind() {
				case reflect.Int, reflect.Int64:
					f.SetInt(int64(i + 1))
				case reflect.Float64:
					f.SetFloat(float64(i) + 0.5)
				default:
					t.Fatalf("field %s has unhandled kind %v", rv.Type().Field(i).Name, f.Kind())
				}
			}
			data, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			var m map[string]any
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			got := make([]string, 0, len(m))
			for k := range m {
				got = append(got, k)
			}
			want := append([]string(nil), tc.keys...)
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("JSON keys = %v, want %v", got, want)
			}
		})
	}
}
