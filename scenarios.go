package agave

import "embed"

// Scenarios holds the bundled scenario library: the committed documents
// testdata/scenarios/<name>.json, which internal/scenario decodes. The module
// root embeds them because go:embed cannot reach above a package directory.
//
//go:embed testdata/scenarios/*.json
var Scenarios embed.FS
