module gfd/benchmark

go 1.24

require gfd v0.0.0

replace gfd => ../
