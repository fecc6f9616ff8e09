package experiments

// ManifestEntry indexes one written report in a manifest.json.
type ManifestEntry struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	File        string  `json:"file"`
	WallSeconds float64 `json:"wall_seconds"`
}

// Manifest is the top-level index written alongside per-experiment
// report files. cmd/skiaexp writes one per -json -out run.
type Manifest struct {
	SchemaVersion    int             `json:"schema_version"`
	GeneratedAt      string          `json:"generated_at"`
	GitDescribe      string          `json:"git_describe,omitempty"`
	Args             []string        `json:"args"`
	Experiments      []ManifestEntry `json:"experiments"`
	TotalWallSeconds float64         `json:"total_wall_seconds"`
}
