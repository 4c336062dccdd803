# Disassembles the matmul kernels' object and fails on any fused
# multiply-add mnemonic. Also requires the AVX2 clone to be present (some
# ymm register in use), so the check cannot pass by having nothing to see.
#
#   cmake -DOBJDUMP=<objdump> -DOBJECTS=<kernels.cpp.o> -P check_no_fma.cmake
execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${OBJECTS}
                OUTPUT_VARIABLE disassembly
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${OBJECTS} failed (${status})")
endif()
string(REGEX MATCHALL "vf(n)?m(add|sub)[0-9a-z]*" fma "${disassembly}")
if(fma)
  list(REMOVE_DUPLICATES fma)
  message(FATAL_ERROR "fused multiply-add in ${OBJECTS}: ${fma}")
endif()
if(NOT disassembly MATCHES "%ymm")
  message(FATAL_ERROR "no AVX register in ${OBJECTS}: no AVX2 clone built")
endif()
message(STATUS "no fused multiply-add in ${OBJECTS}")
