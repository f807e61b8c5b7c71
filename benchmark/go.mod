module x100/benchmark

go 1.24

require x100 v0.0.0

replace x100 => ../
